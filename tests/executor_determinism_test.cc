// Determinism regression for the indexed executor path: two proxy runs
// from the same seed — including the fault-injection layer and
// same-chronon retries — must agree on every field of ProxyRunReport,
// every probe of the schedule, and all fault telemetry. The candidate
// index uses lazy compaction and heap maintenance internally; none of
// that may leak into observable ordering.

#include <string>

#include <gtest/gtest.h>

#include "core/online_executor.h"
#include "sim/config.h"
#include "sim/experiment.h"

namespace pullmon {
namespace {
SimulationConfig ChurnHeavyConfig() {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 30;
  config.epoch_length = 80;
  config.num_profiles = 40;
  config.lambda = 8.0;
  config.budget = 2;
  config.churn.enabled = true;
  config.churn.ops_per_chronon = 2.0;
  config.faults.timeout_rate = 0.08;
  config.faults.server_error_rate = 0.05;
  config.faults.outage_enter_rate = 0.02;
  config.retry.max_retries = 2;
  config.retry.backoff_base = 0.1;
  config.breaker.enabled = true;
  config.breaker.failure_threshold = 3;
  return config;
}

TEST(ExecutorDeterminismTest, IndexedProxyRunsAreReproducible) {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 30;
  config.epoch_length = 80;
  config.num_profiles = 50;
  config.lambda = 8.0;
  config.budget = 2;
  config.executor_backend = ExecutorBackend::kIndexed;
  config.faults.timeout_rate = 0.08;
  config.faults.server_error_rate = 0.05;
  config.faults.truncation_rate = 0.05;
  config.faults.corruption_rate = 0.05;
  config.faults.etag_storm_rate = 0.03;
  config.faults.latency_mean = 0.2;
  config.retry.max_retries = 2;
  config.retry.backoff_base = 0.1;

  for (const PolicySpec& spec : StandardPolicySpecs()) {
    for (uint64_t seed : {11u, 137u}) {
      auto first = RunProxyOnce(config, spec, seed);
      auto second = RunProxyOnce(config, spec, seed);
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      ASSERT_TRUE(second.ok()) << second.status().ToString();
      EXPECT_EQ(ReportDifference(*first, *second), "")
          << spec.Label() << " seed=" << seed;
    }
  }
}

TEST(ExecutorDeterminismTest, ChurnHeavyRunsAreReproducible) {
  // Same seed twice through the churn runner must be bit-identical:
  // churn draws from its own RNG stream, so cancel/edit/unregister
  // traffic may not consume randomness shared with fault injection.
  SimulationConfig config = ChurnHeavyConfig();
  for (const PolicySpec& spec : StandardPolicySpecs()) {
    for (uint64_t seed : {11u, 137u}) {
      auto first = RunChurnOnce(config, spec, seed);
      auto second = RunChurnOnce(config, spec, seed);
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      ASSERT_TRUE(second.ok()) << second.status().ToString();
      EXPECT_GT(first->churn_cancelled + first->churn_edited, 0u);
      EXPECT_EQ(ReportDifference(*first, *second), "")
          << spec.Label() << " churn seed=" << seed;
    }
  }
}

TEST(ExecutorDeterminismTest, ChurnIdenticalAcrossBackends) {
  // The backend flag selects the monitor's index maintenance
  // (incremental delete vs rebuild oracle); the observable run may not
  // change.
  SimulationConfig config = ChurnHeavyConfig();
  PolicySpec spec{"S-EDF", ExecutionMode::kNonPreemptive};
  config.executor_backend = ExecutorBackend::kIndexed;
  auto indexed = RunChurnOnce(config, spec, 29);
  config.executor_backend = ExecutorBackend::kReference;
  auto reference = RunChurnOnce(config, spec, 29);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(ReportDifference(*indexed, *reference), "")
      << "backend differential";
}

TEST(ExecutorDeterminismTest, DifferentSeedsDiverge) {
  // Sanity guard that the reproducibility above is not vacuous: under
  // faults, different seeds should almost surely change the fault
  // pattern.
  SimulationConfig config = BaselineConfig();
  config.num_resources = 30;
  config.epoch_length = 80;
  config.num_profiles = 50;
  config.lambda = 8.0;
  config.faults.timeout_rate = 0.2;
  config.executor_backend = ExecutorBackend::kIndexed;

  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  auto a = RunProxyOnce(config, spec, 1);
  auto b = RunProxyOnce(config, spec, 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(static_cast<const FaultStats&>(*a),
            static_cast<const FaultStats&>(*b));
}

}  // namespace
}  // namespace pullmon
