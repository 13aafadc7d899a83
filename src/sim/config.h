#ifndef PULLMON_SIM_CONFIG_H_
#define PULLMON_SIM_CONFIG_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/chronon.h"
#include "core/online_executor.h"
#include "feeds/fault_injection.h"
#include "sim/churn.h"
#include "trace/auction_generator.h"
#include "trace/feed_workload.h"
#include "trace/update_model.h"

namespace pullmon {

/// Which update-event dataset drives an experiment (Section 5.1).
enum class DatasetKind {
  /// Synthetic Poisson(lambda) update model.
  kPoisson,
  /// Synthetic eBay-style auction trace (stand-in for the paper's
  /// real-world trace; see DESIGN.md).
  kAuction,
  /// Web-feed workload per the measurement study the paper cites as
  /// [10]: 55% near-hourly periodic feeds, Zipf-skewed activity.
  kFeedWorkload,
};

const char* DatasetKindToString(DatasetKind kind);

/// Where the online policies' execution intervals come from.
enum class KnowledgeModel {
  /// FPN(1): oracle EIs derived from the full update trace up front —
  /// the paper's evaluation setting and the byte-identical default.
  kOracle,
  /// Closed-loop: predicted EIs regenerated on a rolling horizon from
  /// an EstimationSession fed by the proxy's own (schedule-censored)
  /// probe observations, with epsilon explore probes to cold resources
  /// charged to the chronon budget (DESIGN.md section 17).
  kEstimated,
};

const char* KnowledgeModelToString(KnowledgeModel model);

/// The controlled parameters of Table 1 with their baseline settings.
/// Every benchmark harness starts from BaselineConfig() and overrides
/// the independent variables of its figure.
struct SimulationConfig {
  DatasetKind dataset = DatasetKind::kPoisson;
  /// n: number of monitored resources.
  int num_resources = 400;
  /// K: epoch length in chronons.
  Chronon epoch_length = 1000;
  /// m: number of client profiles.
  int num_profiles = 500;
  /// k: rank(P) — maximal t-interval complexity (AuctionWatch(k)).
  int max_rank = 3;
  /// lambda: average updates per resource over the epoch (Poisson data).
  double lambda = 20.0;
  /// alpha: inter-user resource-popularity skew (0 = uniform;
  /// 1.37 matches Web-feed popularity per [10]).
  double alpha = 0.0;
  /// beta: intra-user preference toward low-rank profiles (0 = uniform).
  double beta = 0.0;
  /// EI length restriction: overwrite or window(W).
  LengthRestriction restriction = LengthRestriction::kWindow;
  /// W for the window restriction; W = 0 produces P^[1] instances.
  Chronon window = 20;
  /// C: uniform per-chronon probe budget.
  int budget = 1;
  /// Caps t-intervals per profile (0 = derive all update rounds).
  int max_t_intervals_per_profile = 0;
  /// Auction-process knobs, used when dataset == kAuction (its
  /// num_auctions / epoch_length fields are overridden from the above).
  AuctionTraceOptions auction;
  /// Feed-workload knobs, used when dataset == kFeedWorkload (its
  /// num_feeds / epoch_length fields are overridden from the above).
  FeedWorkloadOptions feed_workload;
  /// Fault rates of the physical probe path (proxy experiments only;
  /// the logical executor path never sees them). All-zero by default.
  FaultOptions faults;
  /// Base seed of the fault layer; mixed with the repetition seed so
  /// repetitions draw independent fault sequences.
  uint64_t fault_seed = 0x5EED;
  /// Same-chronon retry/backoff policy of the proxy's probe path.
  RetryPolicy retry;
  /// Circuit-breaker behavior of the executor's resource-health
  /// tracking (core/resource_health.h); disabled by default.
  BreakerOptions breaker;
  /// Which oracle backs a run: kIndexed (default) or kReference. On the
  /// logical run (`run`, `sweep`, ExperimentRunner) kReference executes
  /// ReferenceExecutor behind OnlineExecutor; on every physical run
  /// (proxy, churn, durable, adaptive) it selects the
  /// MonitorIndexMode::kRebuild oracle of the one chronon engine
  /// (MonitorOptionsFor). Decisions are identical either way; the switch
  /// exists for differential testing and perf regression baselines.
  ExecutorBackend executor_backend = ExecutorBackend::kIndexed;
  /// Read only by perfbench/; removed once perfbench/ stops naming it.
  int threads = 1;
  /// Per-server feed buffer capacity of the simulated network (proxy
  /// experiments): small buffers make feeds volatile.
  int feed_buffer_capacity = 8;
  /// ETag/content-keyed parse cache on the proxy's probe path
  /// (sim/proxy.h). Off by default; results are byte-identical either
  /// way apart from the cache's own counters.
  bool parse_cache = false;
  /// Mid-epoch profile churn (sim/churn.h): cancel/edit/unregister
  /// streams with Zipf-skewed client activity, driven through
  /// DynamicMonitor by RunChurnOnce. Disabled by default.
  ChurnOptions churn;
  /// Read only by perfbench/; removed once perfbench/ stops naming it.
  TraceBackend trace_backend = TraceBackend::kInMemory;
  /// Durability layer (src/recovery/): directory snapshots and WALs are
  /// written to. Empty (the default) runs fully volatile. The
  /// durability knobs below are process configuration, not simulation
  /// parameters — none of them enter RunFingerprint, so a recovered run
  /// may legally differ from the crashed one in all of them.
  std::string checkpoint_dir;
  /// Snapshot every N chronon boundaries (0 = only the initial snapshot
  /// plus WAL-size-triggered ones). Requires checkpoint_dir.
  Chronon checkpoint_every = 0;
  /// Crash-injection point of the recovery harness: kill the run at the
  /// first durable write at or after this chronon (-1 disarms).
  /// Requires checkpoint_dir.
  Chronon crash_at_chronon = -1;
  /// Bytes of durable writes the armed crash plan still admits before
  /// the kill fires (the exhausting write is torn).
  std::size_t crash_at_offset = 0;
  /// Resume from the newest valid checkpoint in checkpoint_dir instead
  /// of starting fresh. Requires checkpoint_dir.
  bool recover = false;
  /// Knowledge model of the proxy's online policies: FPN(1) oracle EIs
  /// (default, byte-identical to the pre-estimation behavior) or
  /// closed-loop predicted EIs (RunAdaptiveOnce). Proxy runs only.
  KnowledgeModel knowledge = KnowledgeModel::kOracle;
  /// Half-life (chronons) of the estimator's per-resource decaying rate
  /// tracker. Estimated-knowledge runs only.
  double estimator_half_life = 32.0;
  /// Fraction of chronons that divert one budget unit into an explore
  /// probe of the coldest resource (0 disables exploration).
  double explore_eps = 0.05;
  /// Rolling horizon (chronons) on which predicted EIs are regenerated.
  Chronon forecast_horizon = 50;

  /// Human-readable (parameter, value) rows — the Table 1 rendering.
  std::vector<std::pair<std::string, std::string>> ToRows() const;

  /// Range-checks the sub-option blocks a run would otherwise reject
  /// mid-flight (fault rates, retry/backoff, breaker) — the CLI calls
  /// this up front so bad flags fail with a clean InvalidArgument.
  Status Validate() const;

  /// Range-checks the estimator knobs (half-life, explore eps, forecast
  /// horizon); part of Validate(), and all the adaptive runner checks.
  Status ValidateEstimation() const;
};

/// The paper's baseline parameter settings (Table 1).
SimulationConfig BaselineConfig();

}  // namespace pullmon

#endif  // PULLMON_SIM_CONFIG_H_
