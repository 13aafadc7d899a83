#ifndef PULLMON_CORE_POLICY_H_
#define PULLMON_CORE_POLICY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/t_interval.h"

namespace pullmon {

class ResourceHealthTracker;

/// The two integer terms of a t-interval's M-EDF value (DESIGN.md section
/// 4.2). Summing S-EDF over the uncaptured EIs gives
///
///   M-EDF(now) = uncaptured_finish_sum - now * (num_started - num_captured)
///
/// because a started EI contributes finish - now, an unstarted one
/// finish, and every captured EI has started. Both terms change only at
/// discrete events (a window opens, an EI is captured), so the executor
/// maintains them and M-EDF scores in O(1).
struct EdfAggregate {
  /// Sum of I.T_f over the uncaptured EIs, expired ones included.
  int64_t uncaptured_finish_sum = 0;
  /// EIs whose window has opened: start <= the chronon being scored.
  int num_started = 0;

  bool operator==(const EdfAggregate& other) const = default;
};

/// Live state of one t-interval during an online run, shared between the
/// executor and the policies (policies read, the executor writes).
struct TIntervalRuntime {
  /// Owning profile (index into the problem's profile vector).
  ProfileId profile = 0;
  /// rank(p) of the owning profile, used by rank-level policies.
  int profile_rank = 0;
  /// The static definition (owned by the problem; outlives the run).
  const TInterval* source = nullptr;
  int num_captured = 0;
  /// EIs that expired uncaptured.
  int num_expired = 0;
  /// The M-EDF terms, kept current by the executor at every capture and
  /// window opening; ScanEdfAggregate() is their from-scratch value.
  /// Placed beside num_captured so an M-EDF score reads one cache line.
  EdfAggregate edf;
  /// Per-EI capture flags, parallel to source->eis().
  std::vector<uint8_t> ei_captured;
  /// Too few EIs remain alive: the t-interval can no longer be captured.
  bool failed = false;
  /// required captures achieved.
  bool completed = false;
  /// At least one EI was probed; non-preemptive execution prioritizes the
  /// remaining EIs of selected t-intervals over newly arrived ones.
  bool selected = false;

  int NumEis() const { return static_cast<int>(source->eis().size()); }
  /// Captures needed for completion (TInterval::required()).
  int Required() const { return static_cast<int>(source->required()); }
  /// EIs that are neither captured nor expired.
  int NumAlive() const { return NumEis() - num_captured - num_expired; }
};

/// Whether newly arrived t-intervals may displace previously selected
/// ones in the per-chronon probe choice (Section 4.2.1). Non-preemptive
/// execution first serves EIs of t-intervals that already received a
/// probe, then spends leftover budget on new t-intervals.
enum class ExecutionMode {
  kPreemptive,
  kNonPreemptive,
};

/// "P" / "NP" — the paper's labeling suffixes.
const char* ExecutionModeToString(ExecutionMode mode);

/// The three information levels of Section 4.2.2's policy classification,
/// plus a bucket for baselines that use no t-interval information.
enum class PolicyLevel {
  /// Uses only the candidate EI itself (e.g. S-EDF).
  kSingleEi,
  /// Additionally uses the parent t-interval's rank / residual count
  /// (e.g. MRSF).
  kRank,
  /// Uses full sibling information of the parent t-interval (e.g. M-EDF).
  kMultiEi,
  /// Control baselines (Random, FCFS) outside the paper's classification.
  kBaseline,
};

const char* PolicyLevelToString(PolicyLevel level);

/// An online policy Phi (Section 4.2.1): at each chronon it values the
/// candidate EIs; the executor probes the resources of the best-valued
/// EIs within budget. Smaller scores are preferred. Policies may keep
/// internal state (e.g. a PRNG); Reset() is invoked before each run.
class Policy {
 public:
  virtual ~Policy() = default;

  /// Display name, e.g. "MRSF".
  virtual std::string name() const = 0;

  virtual PolicyLevel level() const = 0;

  /// Value of probing candidate EI `ei` (the `ei_index`-th EI of `parent`)
  /// at chronon `now`. The EI is guaranteed active (start <= now <=
  /// finish) and uncaptured, with a live (non-failed, non-completed)
  /// parent whose `edf` aggregate is current at `now`. Lower is better.
  virtual double Score(const ExecutionInterval& ei,
                       const TIntervalRuntime& parent, int ei_index,
                       Chronon now) = 0;

  /// Called by the executor before a run begins.
  virtual void Reset() {}

  /// Gives the policy read access to the run's per-resource health
  /// estimates (EWMA failure rates). The executor calls this once per
  /// run with a tracker that outlives the run; most policies ignore it —
  /// HealthAwarePolicy forwards it into its expected-gain discount.
  virtual void AttachHealth(const ResourceHealthTracker* health) {
    (void)health;
  }
};

/// S-EDF value of a single EI at chronon `now`: the number of remaining
/// chronons, I.T_f - now; when the EI is not yet active the paper
/// evaluates it "with T = 0", i.e. simply I.T_f (Section 4.2.2). Shared
/// by the S-EDF and M-EDF policies. Exposed here for reuse and testing.
inline double SingleEdfValue(const ExecutionInterval& ei, Chronon now) {
  if (now < ei.start) return static_cast<double>(ei.finish);
  return static_cast<double>(ei.finish - now);
}

/// `rt`'s EdfAggregate recomputed from its capture flags as of chronon
/// `now` (EIs with start <= now have started); O(|eta|). The maintained
/// `rt.edf` must equal it: ReferenceExecutor refills it this way before
/// every Score(), DynamicMonitor::CheckInvariants() audits against it,
/// and hand-built runtimes (tests, examples) are filled with it.
EdfAggregate ScanEdfAggregate(const TIntervalRuntime& rt, Chronon now);

}  // namespace pullmon

#endif  // PULLMON_CORE_POLICY_H_
