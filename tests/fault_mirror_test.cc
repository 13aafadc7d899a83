// The report's four fault counters (timeouts, server_errors,
// outage_probes, corrupt_bodies) are derived from the fault layer's
// FaultStats when FeedPullSession::FinishReport completes a run. This
// checks, on every runner that drives a faulty probe path — the proxy,
// the churn runner, and the durable runner, uninterrupted and
// recovered after a crash — that every fault class fired and that each
// counter equals its FaultStats source.

#include <gtest/gtest.h>

#include <string>

#include "recovery/durable_runner.h"
#include "recovery/stable_storage.h"
#include "sim/config.h"
#include "sim/experiment.h"
#include "sim/proxy.h"

namespace pullmon {
namespace {

SimulationConfig FaultyConfig() {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 20;
  config.num_profiles = 30;
  config.epoch_length = 80;
  config.lambda = 6.0;
  config.budget = 3;
  config.faults.timeout_rate = 0.08;
  config.faults.server_error_rate = 0.05;
  config.faults.truncation_rate = 0.05;
  config.faults.corruption_rate = 0.05;
  config.faults.outage_enter_rate = 0.03;
  config.faults.outage_exit_rate = 0.2;
  config.retry.max_retries = 1;
  return config;
}

SimulationConfig ChurnConfig() {
  SimulationConfig config = FaultyConfig();
  config.churn.enabled = true;
  config.churn.ops_per_chronon = 1.0;
  return config;
}

const PolicySpec kSpec{"MRSF", ExecutionMode::kPreemptive};

void ExpectMirrorsFaultStats(const ProxyRunReport& report,
                             const std::string& label) {
  const FaultStats& f = report.fault_stats;
  // Vacuous otherwise: every fault class must have fired.
  EXPECT_GT(f.timeouts, 0u) << label;
  EXPECT_GT(f.server_errors, 0u) << label;
  EXPECT_GT(f.outage_probes, 0u) << label;
  EXPECT_GT(f.truncations + f.corruptions, 0u) << label;
  EXPECT_EQ(report.timeouts, f.timeouts) << label;
  EXPECT_EQ(report.server_errors, f.server_errors) << label;
  EXPECT_EQ(report.outage_probes, f.outage_probes) << label;
  EXPECT_EQ(report.corrupt_bodies, f.truncations + f.corruptions) << label;
}

TEST(FaultMirrorTest, ProxyRunMirrorsFaultStats) {
  for (ExecutorBackend backend :
       {ExecutorBackend::kIndexed, ExecutorBackend::kReference}) {
    SimulationConfig config = FaultyConfig();
    config.executor_backend = backend;
    auto report = RunProxyOnce(config, kSpec, 17);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ExpectMirrorsFaultStats(*report, ExecutorBackendToString(backend));
  }
}

TEST(FaultMirrorTest, ChurnRunMirrorsFaultStats) {
  auto report = RunChurnOnce(ChurnConfig(), kSpec, 17);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectMirrorsFaultStats(*report, "churn");
}

TEST(FaultMirrorTest, DurableRunMirrorsFaultStatsAcrossRecovery) {
  const SimulationConfig config = ChurnConfig();
  MemoryStorage storage;
  DurableOptions options;
  options.storage = &storage;
  options.checkpoint_every = 10;
  auto durable = RunDurableOnce(config, kSpec, 17, options);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  ExpectMirrorsFaultStats(*durable, "durable");

  // The fault-plan image carries the FaultStats, so a run restored
  // from a snapshot must still agree.
  MemoryStorage crashed;
  DurableOptions crashing = options;
  crashing.storage = &crashed;
  crashing.crash.chronon = 45;
  ASSERT_EQ(RunDurableOnce(config, kSpec, 17, crashing).status().code(),
            StatusCode::kAborted);
  DurableOptions recovering = options;
  recovering.storage = &crashed;
  recovering.recover = true;
  auto recovered = RunDurableOnce(config, kSpec, 17, recovering);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->recovery_snapshots_loaded, 1u);
  ExpectMirrorsFaultStats(*recovered, "recovered");
}

}  // namespace
}  // namespace pullmon
