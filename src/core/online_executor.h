#ifndef PULLMON_CORE_ONLINE_EXECUTOR_H_
#define PULLMON_CORE_ONLINE_EXECUTOR_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "core/completeness.h"
#include "core/policy.h"
#include "core/problem.h"
#include "core/resource_health.h"
#include "util/status.h"

namespace pullmon {

/// Same-chronon retry behavior of the probe path. A failed probe may be
/// retried with exponential backoff; every retry consumes one unit of
/// the chronon's probe budget C_j, so robustness against faults trades
/// directly against gained completeness. Backoff waits are measured in
/// fractional chronons: once the accumulated wait would cross the
/// chronon boundary (backoff_budget), remaining retries are abandoned —
/// the EI stays a candidate and can be re-scored next chronon.
struct RetryPolicy {
  /// Extra attempts allowed after a failed probe (0 disables retries).
  int max_retries = 0;
  /// Wait before the first retry, in fractional chronons.
  double backoff_base = 0.125;
  /// Multiplier applied to the wait before each subsequent retry.
  double backoff_multiplier = 2.0;
  /// Total wait allowed within one chronon (1.0 = the chronon itself).
  double backoff_budget = 1.0;

  Status Validate() const;
};

/// Probe-path counters of one chronon engine (DynamicMonitor, or the
/// ReferenceExecutor oracle). OnlineRunResult inherits them; a monitor
/// snapshot persists them (recovery/recovery_codec.cc).
struct ProbeStats {
  /// Probe attempts issued, including failed attempts and retries; each
  /// one consumed a unit of its chronon's budget. Equals the schedule's
  /// probe count when every probe succeeds.
  std::size_t probes_used = 0;
  /// Probe attempts (initial or retry) the probe callback failed.
  std::size_t probes_failed = 0;
  /// Retry attempts started after a failed probe.
  std::size_t retries_issued = 0;
  /// Budget units consumed by retries — slots that could otherwise have
  /// probed other resources. Coincides with retries_issued under the
  /// unit probe-cost model.
  std::size_t retry_probes_spent = 0;
  /// Sum over chronons of candidate EIs scored (work measure).
  std::size_t candidates_scored = 0;
  /// Largest per-chronon candidate set encountered.
  std::size_t max_concurrent_candidates = 0;
  /// Failed t-intervals that suffered at least one failed probe while
  /// holding a live candidate EI on the probed resource — an upper bound
  /// on the completeness the faults cost this run.
  std::size_t t_intervals_lost_to_faults = 0;

  bool operator==(const ProbeStats& other) const = default;
};

/// Outcome of one online run: the schedule and its completeness, the
/// engine's probe-path counters, and the breaker's health counters
/// (all zero when the breaker is off; core/resource_health.h).
struct OnlineRunResult : ProbeStats, HealthStats {
  Schedule schedule{0};
  CompletenessReport completeness;
  /// Wall-clock seconds spent in the online loop (candidate maintenance,
  /// policy scoring, selection) — the quantity plotted in Figure 5.
  double elapsed_seconds = 0.0;
  std::size_t t_intervals_completed = 0;
  std::size_t t_intervals_failed = 0;
  /// Chronons each resource spent circuit-open (indexed by ResourceId);
  /// empty when the breaker is disabled.
  std::vector<std::size_t> open_chronons_by_resource;
};

/// Which implementation of the online semantics executes a run. Both are
/// decision-identical (differential tests enforce it); they differ only
/// in per-chronon cost.
enum class ExecutorBackend {
  /// Incremental candidate index with partial top-C_j selection
  /// (core/candidate_index.h) — the default production path.
  kIndexed,
  /// A differential oracle. Behind OnlineExecutor (the logical run) it
  /// is ReferenceExecutor, which rebuilds and fully sorts every chronon
  /// (core/reference_executor.h); on the physical runs, which step
  /// MonitorRun, it is the engine's MonitorIndexMode::kRebuild
  /// (MonitorOptionsFor, sim/experiment.h).
  kReference,
  /// Read only by perfbench/; removed once perfbench/ stops naming it.
  kParallel = kIndexed,
};

/// "indexed" / "reference".
const char* ExecutorBackendToString(ExecutorBackend backend);

/// Runs an online policy over a monitoring problem, chronon by chronon
/// (Section 4.2.1). The indexed backend loads the chronon engine
/// (DynamicMonitor, which documents the online semantics) with the
/// whole problem up front — SubmitProblem, the loader the physical
/// proxy run shares — and steps the epoch to its end.
/// set_backend(kReference) switches to the scan-based oracle
/// implementation.
class OnlineExecutor {
 public:
  /// Invoked when a t-interval is fully captured: (profile, index of the
  /// t-interval within the profile, capture chronon).
  using CaptureCallback =
      std::function<void(ProfileId, std::size_t, Chronon)>;

  /// Invoked for every probe attempt the executor issues: (resource,
  /// chronon). Returns whether the probe succeeded: a failed probe
  /// consumes budget but captures nothing — its candidate EIs stay
  /// candidates, eligible for same-chronon retries (see RetryPolicy) and
  /// re-scoring at later chronons. Without a callback every probe
  /// succeeds (the logical simulation of Section 5).
  using ProbeCallback = std::function<bool(ResourceId, Chronon)>;

  /// `problem` and `policy` must outlive the executor; the executor does
  /// not take ownership.
  OnlineExecutor(const MonitoringProblem* problem, Policy* policy,
                 ExecutionMode mode);

  void set_capture_callback(CaptureCallback callback) {
    capture_callback_ = std::move(callback);
  }

  void set_probe_callback(ProbeCallback callback) {
    probe_callback_ = std::move(callback);
  }

  /// Same-chronon retry behavior for failed probes (default: none).
  void set_retry_policy(RetryPolicy retry) { retry_ = retry; }

  /// Circuit-breaker behavior for unhealthy resources (default:
  /// disabled, which is byte-identical to running without the breaker).
  void set_breaker_options(BreakerOptions breaker) { breaker_ = breaker; }

  /// Selects the implementation (default: the incremental index);
  /// kReference runs ReferenceExecutor. Only this logical executor runs
  /// it: a physical run maps kReference to MonitorIndexMode::kRebuild.
  void set_backend(ExecutorBackend backend) { backend_ = backend; }
  ExecutorBackend backend() const { return backend_; }

  /// Read only by perfbench/; removed once perfbench/ stops naming it.
  void set_threads(int) {}

  /// Validates the problem and executes the full epoch. Can be called
  /// repeatedly; each call is an independent run (the policy is Reset()).
  Result<OnlineRunResult> Run();

 private:
  const MonitoringProblem* problem_;
  Policy* policy_;
  ExecutionMode mode_;
  ExecutorBackend backend_ = ExecutorBackend::kIndexed;
  CaptureCallback capture_callback_;
  ProbeCallback probe_callback_;
  RetryPolicy retry_;
  BreakerOptions breaker_;
};

}  // namespace pullmon

#endif  // PULLMON_CORE_ONLINE_EXECUTOR_H_
