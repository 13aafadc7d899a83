#ifndef PULLMON_CORE_RESOURCE_HEALTH_H_
#define PULLMON_CORE_RESOURCE_HEALTH_H_

#include <cstddef>
#include <vector>

#include "core/chronon.h"
#include "util/status.h"

namespace pullmon {

/// Circuit-breaker configuration of the resource-health subsystem
/// (DESIGN.md section 10). The default (disabled) leaves the executors
/// byte-identical to running without the subsystem: no candidate is ever
/// suppressed, no retry is ever cut short, and all health telemetry
/// stays zero.
struct BreakerOptions {
  /// Master switch. When false the tracker still estimates per-resource
  /// health (so a health-aware policy can discount flaky resources) but
  /// never suppresses a candidate or interferes with retries.
  bool enabled = false;
  /// Consecutive failed probe attempts that trip a closed circuit open.
  int failure_threshold = 3;
  /// Chronons an opened circuit stays dark before its probation
  /// (half-open) phase, for the first trip after a close.
  Chronon cooldown_base = 4;
  /// Cool-down growth per consecutive re-open (probation failure).
  double cooldown_multiplier = 2.0;
  /// Exponential cool-down cap.
  Chronon max_cooldown = 64;
  /// EWMA smoothing of the per-resource failure rate in (0, 1]:
  /// rate <- alpha * outcome + (1 - alpha) * rate per probe attempt.
  double ewma_alpha = 0.2;

  Status Validate() const;
};

/// Deterministic counters of everything the breaker did during one run.
struct HealthStats {
  /// Closed -> open transitions (failure threshold reached).
  std::size_t circuits_opened = 0;
  /// Half-open -> open transitions (probation probe failed; the
  /// cool-down doubles, capped at max_cooldown).
  std::size_t circuits_reopened = 0;
  /// Probes issued against half-open circuits.
  std::size_t probation_probes = 0;
  /// Probation probes that succeeded and closed their circuit.
  std::size_t probation_successes = 0;
  /// (resource, chronon) pairs where an open circuit excluded a resource
  /// holding at least one live candidate from selection.
  std::size_t probes_suppressed = 0;
  /// Upper bound on the budget units freed by suppression that were
  /// spent probing other resources: per chronon, min(suppressed
  /// resources with live candidates, budget units consumed).
  std::size_t budget_reclaimed = 0;
  /// Sum over resources of chronons spent with an open circuit.
  std::size_t open_chronons_total = 0;

  bool operator==(const HealthStats& other) const = default;
};

/// Resumable state of one ResourceHealthTracker, produced by Capture()
/// and consumed by Restore() — the recovery layer serializes it into
/// proxy snapshots (src/recovery/). Options are not part of the image:
/// they come from the run configuration, which a restored run must share
/// anyway (the snapshot codec fingerprints it).
struct HealthImage {
  std::vector<uint8_t> state;  // CircuitState per resource
  std::vector<int> consecutive_failures;
  std::vector<double> ewma_failure;
  std::vector<Chronon> cooldown;
  std::vector<Chronon> open_until;
  std::vector<std::size_t> open_chronons;
  std::vector<ResourceId> open_list;
  std::size_t suppressed_this_chronon = 0;
  HealthStats stats;
};

/// Breaker state of one resource.
enum class CircuitState {
  kClosed,    // probed normally
  kOpen,      // excluded from candidate selection until cool-down ends
  kHalfOpen,  // competes normally; the next probe is the probation
};

const char* CircuitStateToString(CircuitState state);

/// Per-resource health bookkeeping shared by both executor backends: an
/// EWMA failure-rate estimate, a consecutive-failure count, and the
/// circuit-breaker state machine
///
///   closed --[failure_threshold consecutive failures]--> open
///   open   --[cool-down elapsed]--> half-open
///   half-open --[probation success]--> closed   (cool-down resets)
///   half-open --[probation failure]--> open     (cool-down doubles,
///                                                capped at max_cooldown)
///
/// Everything is a pure function of the probe-attempt sequence, which
/// both backends issue identically (the differential test enforces it),
/// so the tracker never breaks decision-identity. The executor drives
/// it: BeginChronon() once per chronon before scoring, IsSuppressed()
/// while collecting candidates, RecordProbe() per probe attempt.
class ResourceHealthTracker {
 public:
  ResourceHealthTracker(int num_resources, BreakerOptions options);

  const BreakerOptions& options() const { return options_; }

  /// Advances the state machine to `now`: circuits whose cool-down has
  /// elapsed move to half-open, and still-open circuits accrue one open
  /// chronon. No-op when the breaker is disabled.
  void BeginChronon(Chronon now);

  /// True when the breaker is enabled and the resource's circuit is
  /// open. The executors exclude it from candidate selection, and after
  /// a failed attempt they abandon same-chronon retries of a resource
  /// the breaker just gave up on.
  bool IsSuppressed(ResourceId resource) const {
    return options_.enabled &&
           state_[static_cast<std::size_t>(resource)] == CircuitState::kOpen;
  }

  /// True when the breaker is enabled and the resource is half-open:
  /// its next probe is the probation probe.
  bool IsProbation(ResourceId resource) const {
    return options_.enabled && state_[static_cast<std::size_t>(resource)] ==
                                   CircuitState::kHalfOpen;
  }

  /// Records the outcome of one probe attempt (initial or retry) and
  /// runs the breaker transitions. The EWMA failure estimate updates
  /// even when the breaker is disabled, so health-aware policies work
  /// without it.
  void RecordProbe(ResourceId resource, Chronon now, bool success);

  CircuitState state(ResourceId resource) const {
    return state_[static_cast<std::size_t>(resource)];
  }

  /// EWMA estimate in [0, 1] that the next probe of `resource` fails.
  double FailureRate(ResourceId resource) const {
    return ewma_failure_[static_cast<std::size_t>(resource)];
  }

  /// 1 - FailureRate(): the expected-gain discount a health-aware
  /// policy applies to the resource's candidates.
  double SuccessProbability(ResourceId resource) const {
    return 1.0 - ewma_failure_[static_cast<std::size_t>(resource)];
  }

  int ConsecutiveFailures(ResourceId resource) const {
    return consecutive_failures_[static_cast<std::size_t>(resource)];
  }

  /// Telemetry hook for the executor's scoring pass: a suppressed
  /// resource held `live_candidates` live EIs this chronon.
  void NoteSuppressed(ResourceId resource, int live_candidates);

  /// Telemetry hook after a chronon's probe loop: `reclaimed` budget
  /// units flowed to next-ranked candidates (see HealthStats).
  void NoteBudgetReclaimed(std::size_t reclaimed);

  /// Suppressed resources seen by NoteSuppressed since the last
  /// BeginChronon (the executor's reclaim accounting reads this).
  std::size_t SuppressedThisChronon() const {
    return suppressed_this_chronon_;
  }

  const HealthStats& stats() const { return stats_; }

  /// Chronons each resource spent with an open circuit (length = number
  /// of resources; all zero when the breaker never tripped).
  const std::vector<std::size_t>& OpenChrononsByResource() const {
    return open_chronons_;
  }

  /// Checkpoint support: Capture() freezes the full dynamic state;
  /// Restore() resumes it on a tracker built with the same resource
  /// count and options. InvalidArgument on a size mismatch.
  HealthImage Capture() const;
  Status Restore(const HealthImage& image);

 private:
  void Open(ResourceId resource, Chronon now, bool reopen);

  BreakerOptions options_;
  std::vector<CircuitState> state_;
  std::vector<int> consecutive_failures_;
  std::vector<double> ewma_failure_;
  /// Current cool-down length (doubles per re-open, capped).
  std::vector<Chronon> cooldown_;
  /// First chronon at which an open circuit may enter probation.
  std::vector<Chronon> open_until_;
  std::vector<std::size_t> open_chronons_;
  /// Resources with open circuits (compacted each BeginChronon).
  std::vector<ResourceId> open_list_;
  std::size_t suppressed_this_chronon_ = 0;
  HealthStats stats_;
};

}  // namespace pullmon

#endif  // PULLMON_CORE_RESOURCE_HEALTH_H_
