// Closed-loop estimation suite (DESIGN.md section 17). Two promises
// are under test. First, the pass-through guarantee: under
// KnowledgeModel::kOracle the estimator knobs are inert and every
// deterministic ProxyRunReport field is byte-identical to a run that
// never heard of them, on every backend. Second, the closed loop
// itself: under kEstimated the run spends only real budget, mirrors
// its estimation_* telemetry, stays backend-identical, and — on a
// stationary periodic workload — converges to a useful fraction of the
// oracle's gained completeness without ever reading the trace ahead of
// the probes it issued.

#include <string>

#include <gtest/gtest.h>

#include "recovery/durable_runner.h"
#include "recovery/stable_storage.h"
#include "sim/config.h"
#include "sim/experiment.h"
#include "sim/proxy.h"

namespace pullmon {
namespace {

SimulationConfig SmallConfig() {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 25;
  config.num_profiles = 35;
  config.epoch_length = 150;
  config.lambda = 8.0;
  config.budget = 2;
  return config;
}

/// The steady regime of bench_adaptive: Zipf-skewed web feeds, over
/// half of them near-hourly periodic — the workload the estimator is
/// supposed to learn.
SimulationConfig SteadyConfig() {
  SimulationConfig config = BaselineConfig();
  config.dataset = DatasetKind::kFeedWorkload;
  config.num_resources = 40;
  config.num_profiles = 40;
  config.epoch_length = 600;
  config.budget = 2;
  return config;
}

TEST(AdaptiveTest, OracleKnowledgeIgnoresEstimatorKnobs) {
  // The bugfix contract: flipping every estimator knob to a non-default
  // value must not move one byte of an oracle-knowledge report.
  SimulationConfig config = SmallConfig();
  config.faults.timeout_rate = 0.1;
  config.faults.etag_storm_rate = 0.1;
  config.retry.max_retries = 2;
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  for (ExecutorBackend backend :
       {ExecutorBackend::kIndexed, ExecutorBackend::kReference}) {
    config.executor_backend = backend;
    config.knowledge = KnowledgeModel::kOracle;
    config.estimator_half_life = 32.0;
    config.explore_eps = 0.05;
    config.forecast_horizon = 50;
    auto plain = RunProxyOnce(config, spec, 404);
    config.estimator_half_life = 3.0;
    config.explore_eps = 0.9;
    config.forecast_horizon = 7;
    auto knobs = RunProxyOnce(config, spec, 404);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ASSERT_TRUE(knobs.ok()) << knobs.status().ToString();
    ASSERT_EQ(ReportDifference(*plain, *knobs), "") << "oracle passthrough";
    // Oracle runs carry no estimation telemetry at all.
    EXPECT_EQ(plain->estimation_probes_observed, 0u);
    EXPECT_EQ(plain->estimation_update_events, 0u);
    EXPECT_EQ(plain->estimation_explore_probes, 0u);
    EXPECT_EQ(plain->estimation_forecast_refreshes, 0u);
  }
}

TEST(AdaptiveTest, EstimatedRunSpendsOnlyRealBudgetAndMirrorsTelemetry) {
  SimulationConfig config = SmallConfig();
  config.knowledge = KnowledgeModel::kEstimated;
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  auto report = RunProxyOnce(config, spec, 42);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Budget accounting: explore probes are charged to C_j, so the total
  // spend (monitor + explore) never exceeds the epoch's budget, and no
  // chronon exceeds C_j on the combined schedule.
  const std::size_t budget_total = static_cast<std::size_t>(
      config.budget * config.epoch_length);
  EXPECT_LE(report->run.probes_used, budget_total);
  EXPECT_EQ(report->run.schedule.TotalProbes(), report->run.probes_used);
  for (Chronon t = 0; t < config.epoch_length; ++t) {
    EXPECT_LE(report->run.schedule.ProbesAt(t).size(),
              static_cast<std::size_t>(config.budget))
        << "chronon " << t;
  }

  // The loop actually closed: probes were observed, events learned,
  // forecasts refreshed, predictions submitted.
  EXPECT_GT(report->estimation_probes_observed, 0u);
  EXPECT_GT(report->estimation_update_events, 0u);
  EXPECT_GT(report->estimation_forecast_refreshes, 0u);
  EXPECT_GT(report->estimation_predicted_t_intervals, 0u);
  EXPECT_GT(report->estimation_predicted_eis, 0u);
  EXPECT_GT(report->estimation_explore_probes, 0u);
  // Every probe the run issued was fed back into the model.
  EXPECT_EQ(report->estimation_probes_observed, report->run.probes_used);
  EXPECT_GT(report->run.completeness.GainedCompleteness(), 0.0);
}

TEST(AdaptiveTest, EstimatedRunsAreDeterministicPerSeed) {
  SimulationConfig config = SmallConfig();
  config.knowledge = KnowledgeModel::kEstimated;
  config.faults.timeout_rate = 0.05;
  config.faults.server_error_rate = 0.05;
  config.retry.max_retries = 1;
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  auto first = RunProxyOnce(config, spec, 1234);
  auto second = RunProxyOnce(config, spec, 1234);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(ReportDifference(*first, *second), "") << "repeat determinism";
}

TEST(AdaptiveTest, EstimatedBackendsReportIdentical) {
  // The incremental monitor (kIndexed) and the rebuild oracle monitor
  // that adaptive runs map kReference onto (MonitorIndexMode::kRebuild)
  // must make identical decisions from the identical predicted EIs.
  SimulationConfig config = SmallConfig();
  config.knowledge = KnowledgeModel::kEstimated;
  config.faults.timeout_rate = 0.1;
  config.faults.etag_storm_rate = 0.1;
  config.retry.max_retries = 2;
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  config.executor_backend = ExecutorBackend::kIndexed;
  auto indexed = RunProxyOnce(config, spec, 777);
  config.executor_backend = ExecutorBackend::kReference;
  auto reference = RunProxyOnce(config, spec, 777);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(ReportDifference(*indexed, *reference), "")
      << "indexed vs reference";
}

TEST(AdaptiveTest, ChurnAndDurableRunnersRejectEstimatedKnowledge) {
  // Only the adaptive runner learns EIs; the churn and durable runners
  // feed the monitor the oracle t-intervals, so a library caller asking
  // them for estimated knowledge gets a clean error, not an oracle run.
  SimulationConfig config = SmallConfig();
  config.knowledge = KnowledgeModel::kEstimated;
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  auto churn = RunChurnOnce(config, spec, 5);
  ASSERT_FALSE(churn.ok());
  EXPECT_EQ(churn.status().code(), StatusCode::kInvalidArgument);
  MemoryStorage storage;
  DurableOptions options;
  options.storage = &storage;
  auto durable = RunDurableOnce(config, spec, 5, options);
  ASSERT_FALSE(durable.ok());
  EXPECT_EQ(durable.status().code(), StatusCode::kInvalidArgument);
}

TEST(AdaptiveTest, ConvergesTowardOracleOnStationaryPeriodicWorkload) {
  // The convergence property behind the bench gate: on a stationary
  // workload with periodic structure, the censored observations are
  // enough to (a) lock the periodic detector onto real feeds and
  // (b) recover a substantial fraction of the oracle's gained
  // completeness. The 0.5 threshold matches the steady-regime floor in
  // BENCH_adaptive.json (observed ratio ~0.7, so this is not tight).
  SimulationConfig config = SteadyConfig();
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  config.knowledge = KnowledgeModel::kOracle;
  auto oracle = RunProxyOnce(config, spec, 7);
  config.knowledge = KnowledgeModel::kEstimated;
  auto estimated = RunProxyOnce(config, spec, 7);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_TRUE(estimated.ok()) << estimated.status().ToString();

  const double oracle_gc = oracle->run.completeness.GainedCompleteness();
  const double estimated_gc =
      estimated->run.completeness.GainedCompleteness();
  ASSERT_GT(oracle_gc, 0.0);
  EXPECT_GE(estimated_gc / oracle_gc, 0.5)
      << "estimated GC " << estimated_gc << " vs oracle " << oracle_gc;
  // The detector found periodic structure — the workload plants it.
  EXPECT_GT(estimated->estimation_periodic_resources, 0u);
}

}  // namespace
}  // namespace pullmon
