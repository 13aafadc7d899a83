// The report inherits the fault layer's FaultStats block, which
// FeedPullSession::FinishReport copies once at the end of a run; the one
// counter derived from it is corrupt_bodies (truncations plus
// corruptions). This checks, on every runner that drives a faulty probe
// path — the proxy, the churn runner, and the durable runner,
// uninterrupted and recovered after a crash — that every fault class
// fired and that corrupt_bodies equals its FaultStats sum.

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

void ExpectEveryFaultClassFired(const ProxyRunReport& report,
                             const std::string& label) {
  // Vacuous otherwise: every fault class must have fired.
  EXPECT_GT(report.timeouts, 0u) << label;
  EXPECT_GT(report.server_errors, 0u) << label;
  EXPECT_GT(report.outage_probes, 0u) << label;
  EXPECT_GT(report.truncations + report.corruptions, 0u) << label;
  EXPECT_EQ(report.corrupt_bodies, report.truncations + report.corruptions)
      << label;
}

TEST(FaultMirrorTest, ProxyRunMirrorsFaultStats) {
  for (ExecutorBackend backend :
       {ExecutorBackend::kIndexed, ExecutorBackend::kReference}) {
    SimulationConfig config = FaultyConfig();
    config.executor_backend = backend;
    auto report = RunProxyOnce(config, kSpec, 17);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ExpectEveryFaultClassFired(*report, ExecutorBackendToString(backend));
  }
}

TEST(FaultMirrorTest, ChurnRunMirrorsFaultStats) {
  auto report = RunChurnOnce(ChurnConfig(), kSpec, 17);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectEveryFaultClassFired(*report, "churn");
}

TEST(FaultMirrorTest, DurableRunMirrorsFaultStatsAcrossRecovery) {
  const SimulationConfig config = ChurnConfig();
  MemoryStorage storage;
  DurableOptions options;
  options.storage = &storage;
  options.checkpoint_every = 10;
  auto durable = RunDurableOnce(config, kSpec, 17, options);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  ExpectEveryFaultClassFired(*durable, "durable");

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
  ExpectEveryFaultClassFired(*recovered, "recovered");
}

}  // namespace
}  // namespace pullmon
