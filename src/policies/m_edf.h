#ifndef PULLMON_POLICIES_M_EDF_H_
#define PULLMON_POLICIES_M_EDF_H_

#include <string>

#include "core/policy.h"

namespace pullmon {

/// Multi Interval EDF (Section 4.2.2, multi-EIs level): values a
/// candidate EI by the summed S-EDF values of all *uncaptured* EIs of its
/// parent t-interval,
///
///   M-EDF(I, T) = sum_{I' in eta} S-EDF(I', T) * (1 - captured(I')),
///
/// where a not-yet-active sibling is evaluated with T = 0. A t-interval
/// with fewer total remaining chronons is less likely to collide with
/// others, hence is served first.
///
/// Score() reads the parent's maintained EdfAggregate in O(1); Value()
/// is the O(|eta|) sibling scan it must equal exactly.
class MEdfPolicy : public Policy {
 public:
  std::string name() const override { return "M-EDF"; }
  PolicyLevel level() const override { return PolicyLevel::kMultiEi; }

  double Score(const ExecutionInterval& ei, const TIntervalRuntime& parent,
               int ei_index, Chronon now) override;

  /// The raw M-EDF value of a whole t-interval by scanning its EIs'
  /// capture flags — the oracle of Score() (and the form tests replicating
  /// the paper's Example 1 / Figure 2 check).
  static double Value(const TIntervalRuntime& parent, Chronon now);
};

}  // namespace pullmon

#endif  // PULLMON_POLICIES_M_EDF_H_
