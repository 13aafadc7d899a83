#ifndef PULLMON_SIM_EXPERIMENT_H_
#define PULLMON_SIM_EXPERIMENT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/online_executor.h"
#include "core/problem.h"
#include "offline/local_ratio.h"
#include "sim/config.h"
#include "sim/proxy.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"

namespace pullmon {

/// A policy under evaluation: heuristic name plus execution mode.
struct PolicySpec {
  std::string policy;  // accepted by MakePolicy
  ExecutionMode mode = ExecutionMode::kPreemptive;

  /// "MRSF(P)" / "S-EDF(NP)" — the paper's labeling convention.
  std::string Label() const;
};

/// The policy line-up used throughout Section 5.
std::vector<PolicySpec> StandardPolicySpecs();

/// The auction generator's options for `config`: num_resources
/// auctions over the epoch.
AuctionTraceOptions AuctionOptionsFor(const SimulationConfig& config);

/// Generates `config.dataset` as an in-memory update trace (an auction
/// trace becomes its update events), drawing from `rng` exactly as
/// BuildProblem does before it derives the profiles.
Result<UpdateTrace> GenerateUpdateTrace(const SimulationConfig& config,
                                        Rng* rng);

/// Instantiates a problem from a configuration and seed: generates the
/// update trace (GenerateUpdateTrace), derives profiles with the
/// three-stage generator, and attaches the uniform budget. When
/// `trace_out` is non-null it receives the generated update trace (the
/// proxy path replays it through a FeedNetwork).
///
/// With config.trace_backend == kPaged the trace is generated straight
/// into a compressed TraceStore (profiles derived through its page
/// cache, so nothing is ever fully resident) and `store_out` — if
/// non-null — receives it; `trace_out` is left untouched. The two
/// backends consume the seed identically, so they build the same
/// problem from the same events.
Result<MonitoringProblem> BuildProblem(
    const SimulationConfig& config, uint64_t seed,
    UpdateTrace* trace_out = nullptr,
    std::optional<TraceStore>* store_out = nullptr);

/// Everything a proxy-path run builds from (config, spec, seed) before
/// its first chronon: the problem instance, its trace (in memory or
/// paged), the feed network replaying it, the policy, and the proxy
/// options. The network points into the trace, so a substrate is built
/// in place and never copied or moved.
struct RunSubstrate {
  UpdateTrace trace{0, 0};
  std::optional<TraceStore> store;
  MonitoringProblem problem;
  std::optional<FeedNetwork> network;
  std::unique_ptr<Policy> policy;
  ProxyOptions proxy;

  RunSubstrate() = default;
  RunSubstrate(const RunSubstrate&) = delete;
  RunSubstrate& operator=(const RunSubstrate&) = delete;
};

/// Builds the substrate of one run into `out` (freshly constructed).
/// Every runner — proxy, churn, durable, adaptive — starts here, so they
/// consume the seed identically. The proxy options are derived and
/// validated (ProxyOptions::Validate), and a feed buffer capacity below
/// 1 is rejected (InvalidArgument), before anything is generated.
Status BuildSubstrate(const SimulationConfig& config, const PolicySpec& spec,
                      uint64_t seed, RunSubstrate* out);

/// The chronon-engine options of a monitor-driven run of `config`:
/// retry and breaker knobs, and index maintenance (reference -> the
/// rebuild oracle, incremental otherwise).
MonitorOptions MonitorOptionsFor(const SimulationConfig& config);

/// Runs the *physical* proxy path once: generates the instance, replays
/// its trace through a FeedNetwork (buffer capacity, fault rates, and
/// the retry policy all from `config`), and drives MonitoringProxy with
/// the given policy. Deterministic in (config, spec, seed).
Result<ProxyRunReport> RunProxyOnce(const SimulationConfig& config,
                                    const PolicySpec& spec, uint64_t seed);

/// Runs the churn-capable monitoring service once (sim/churn.cc):
/// generates the instance, submits each t-interval the chronon its
/// earliest EI opens, replays the generated churn stream
/// (cancel/edit/unregister with Zipf client activity) against a
/// DynamicMonitor, and pulls every scheduled probe through the same
/// FeedPullSession as the proxy path. `config.executor_backend` selects
/// the monitor's shape (MonitorOptionsFor); all are decision-identical.
/// Deterministic in (config, spec, seed). Oracle knowledge only:
/// InvalidArgument for KnowledgeModel::kEstimated.
Result<ProxyRunReport> RunChurnOnce(const SimulationConfig& config,
                                    const PolicySpec& spec, uint64_t seed);

/// Runs the closed-loop, oracle-free proxy path once (sim/adaptive.cc):
/// the monitor never sees the oracle EIs — an EstimationSession learns
/// per-resource update behavior from the proxy's own probe diffs and
/// 304s, predicted t-intervals are regenerated every
/// config.forecast_horizon chronons, and an epsilon fraction of
/// chronons divert one budget unit into an explore probe of the coldest
/// resource. Completeness is scored against the true profiles over the
/// combined schedule. RunProxyOnce dispatches here when
/// config.knowledge == KnowledgeModel::kEstimated. Deterministic in
/// (config, spec, seed) and bit-identical across executor backends and
/// thread counts.
Result<ProxyRunReport> RunAdaptiveOnce(const SimulationConfig& config,
                                       const PolicySpec& spec,
                                       uint64_t seed);

/// Aggregated outcome of one policy over the experiment repetitions.
struct PolicyOutcome {
  PolicySpec spec;
  RunningStats gc;
  RunningStats runtime_seconds;
  RunningStats probes_used;
};

/// Aggregated outcome of the offline Local-Ratio approximation.
struct OfflineOutcome {
  RunningStats gc;
  RunningStats runtime_seconds;
  double guaranteed_factor = 0.0;
};

struct ComparisonResult {
  std::vector<PolicyOutcome> policies;
  std::optional<OfflineOutcome> offline;
  /// Mean counts of the generated instances (diagnostics).
  RunningStats t_intervals;
  RunningStats eis;
};

/// Repeats (generate instance -> run every policy [-> run offline]) and
/// averages, following the paper's protocol of 10 repetitions per
/// setting (Section 5.1). All policies see identical instances within a
/// repetition. Repetitions are independent and deterministic in their
/// seed, so they can run on several threads; results are bitwise
/// identical regardless of the thread count (each repetition fills its
/// own record slot and the records are folded in repetition order on
/// one thread — see tests/thread_invariance_test.cc).
class ExperimentRunner {
 public:
  explicit ExperimentRunner(int repetitions = 10, uint64_t base_seed = 1234,
                            int threads = 1)
      : repetitions_(repetitions),
        base_seed_(base_seed),
        threads_(threads < 1 ? 1 : threads) {}

  Result<ComparisonResult> Run(const SimulationConfig& config,
                               const std::vector<PolicySpec>& specs,
                               bool include_offline = false,
                               const LocalRatioOptions& offline_options = {});

 private:
  /// The plain per-repetition measurements, one slot per repetition,
  /// so aggregation order is fixed no matter which thread ran it.
  struct RepetitionRecord {
    double t_intervals = 0.0;
    double eis = 0.0;
    struct PolicyRecord {
      double gc = 0.0;
      double runtime_seconds = 0.0;
      double probes_used = 0.0;
    };
    std::vector<PolicyRecord> policies;
    double offline_gc = 0.0;
    double offline_runtime_seconds = 0.0;
    double offline_guaranteed_factor = 0.0;
  };

  /// One repetition into its record slot — factored out so threads can
  /// run disjoint repetition ranges.
  Status RunRepetition(const SimulationConfig& config,
                       const std::vector<PolicySpec>& specs,
                       bool include_offline,
                       const LocalRatioOptions& offline_options, int rep,
                       RepetitionRecord* out);

  int repetitions_;
  uint64_t base_seed_;
  int threads_;
};

}  // namespace pullmon

#endif  // PULLMON_SIM_EXPERIMENT_H_
