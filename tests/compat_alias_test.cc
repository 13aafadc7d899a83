// The names perfbench/ still reads are inert: ExecutorBackend::kParallel
// is an alias of kIndexed, SimulationConfig::threads is read by nothing,
// and the report's shard_count and shard_merge_entries stay 0. A run
// through those names must therefore equal the plain indexed run on
// every compared field — on the oracle proxy path (faults, retries,
// parse cache), the estimated path, and the churn runner.

#include <string>

#include <gtest/gtest.h>

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

/// Runs `run` once through the compat names (kParallel, 3 threads) and
/// once on kIndexed with 1 thread, and requires identical reports with
/// the compat fields at 0.
template <typename Run>
void ExpectAliasInert(SimulationConfig config, Run run,
                      const std::string& label) {
  const PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  config.executor_backend = ExecutorBackend::kParallel;
  config.threads = 3;
  Result<ProxyRunReport> alias = run(config, spec, 2718);
  config.executor_backend = ExecutorBackend::kIndexed;
  config.threads = 1;
  Result<ProxyRunReport> indexed = run(config, spec, 2718);
  ASSERT_TRUE(alias.ok()) << label << ": " << alias.status().ToString();
  ASSERT_TRUE(indexed.ok()) << label << ": " << indexed.status().ToString();
  EXPECT_EQ(ReportDifference(*alias, *indexed), "") << label;
  EXPECT_GT(alias->run.probes_used, 0u) << label;
  for (const ProxyRunReport* report : {&*alias, &*indexed}) {
    EXPECT_EQ(report->shard_count, 0u) << label;
    EXPECT_EQ(report->shard_merge_entries, 0u) << label;
  }
}

TEST(CompatAliasTest, OracleProxyWithFaultsAndCache) {
  SimulationConfig config = SmallConfig();
  config.faults.timeout_rate = 0.08;
  config.faults.corruption_rate = 0.04;
  config.faults.etag_storm_rate = 0.1;
  config.retry.max_retries = 2;
  config.parse_cache = true;
  ExpectAliasInert(config, RunProxyOnce, "oracle faulty+cache");
}

TEST(CompatAliasTest, EstimatedProxy) {
  SimulationConfig config = SmallConfig();
  config.dataset = DatasetKind::kFeedWorkload;
  config.knowledge = KnowledgeModel::kEstimated;
  ExpectAliasInert(config, RunProxyOnce, "estimated");
}

TEST(CompatAliasTest, ChurnRunner) {
  SimulationConfig config = SmallConfig();
  config.churn.enabled = true;
  config.churn.ops_per_chronon = 1.5;
  config.faults.timeout_rate = 0.05;
  config.retry.max_retries = 1;
  ExpectAliasInert(config, RunChurnOnce, "churn");
}

}  // namespace
}  // namespace pullmon
