#ifndef PULLMON_CORE_COMPLETENESS_H_
#define PULLMON_CORE_COMPLETENESS_H_

#include <cstddef>
#include <vector>

#include "core/profile.h"
#include "core/schedule.h"

namespace pullmon {

/// Capture indicator for a single EI: true iff the schedule probes the
/// EI's resource at some chronon inside [start, finish] (Section 3.2).
/// A per-chronon scan of the window: the differential oracle of
/// ProbeIndex::Captures (DESIGN.md section 4.4).
bool IsCaptured(const ExecutionInterval& ei, const Schedule& schedule);

/// Capture indicator for a t-interval: at least eta.required() of its
/// EIs captured (all of them by default — the paper's product
/// indicator; Section 6's "alternatives" extension relaxes it). Scans
/// like the EI overload; the oracle of ProbeIndex::Captures.
bool IsCaptured(const TInterval& eta, const Schedule& schedule);

/// A schedule's probe chronons grouped by resource, each group in
/// ascending order: one O(K + P) counting pass over the K chronons and P
/// probes, stored as per-resource offsets into one chronon array. An EI
/// is captured iff the first probe of its resource at or after `start`
/// is also at or before `finish`, so a capture test is one binary search
/// instead of a walk over the window.
class ProbeIndex {
 public:
  explicit ProbeIndex(const Schedule& schedule);

  /// Same answer as IsCaptured(ei, schedule).
  bool Captures(const ExecutionInterval& ei) const;

  /// Same answer as IsCaptured(eta, schedule); stops as soon as the
  /// outcome is decided either way.
  bool Captures(const TInterval& eta) const;

 private:
  /// Probes of resource r are chronons_[offsets_[r], offsets_[r + 1]);
  /// resources beyond the largest one probed have none.
  std::vector<std::size_t> offsets_;
  std::vector<Chronon> chronons_;
};

/// Per-profile capture counts produced by EvaluateCompleteness.
struct ProfileCompleteness {
  std::size_t captured = 0;
  std::size_t total = 0;

  double Fraction() const {
    return total == 0 ? 0.0 : static_cast<double>(captured) /
                                  static_cast<double>(total);
  }
};

/// Full evaluation of a schedule against a profile set.
struct CompletenessReport {
  std::size_t captured_t_intervals = 0;
  std::size_t total_t_intervals = 0;
  /// Utility-weighted totals (Section 6 extension); equal to the counts
  /// when all weights are 1.
  double captured_weight = 0.0;
  double total_weight = 0.0;
  std::vector<ProfileCompleteness> per_profile;

  /// GC(P, T, S) from Section 3.3: captured / total t-intervals.
  double GainedCompleteness() const {
    return total_t_intervals == 0
               ? 0.0
               : static_cast<double>(captured_t_intervals) /
                     static_cast<double>(total_t_intervals);
  }

  /// Utility-weighted completeness: captured / total utility.
  double WeightedGainedCompleteness() const {
    return total_weight == 0.0 ? 0.0 : captured_weight / total_weight;
  }
};

/// Evaluates every t-interval of every profile against the schedule,
/// through one ProbeIndex of it.
CompletenessReport EvaluateCompleteness(const std::vector<Profile>& profiles,
                                        const Schedule& schedule);

/// Shorthand for EvaluateCompleteness(...).GainedCompleteness().
double GainedCompleteness(const std::vector<Profile>& profiles,
                          const Schedule& schedule);

}  // namespace pullmon

#endif  // PULLMON_CORE_COMPLETENESS_H_
