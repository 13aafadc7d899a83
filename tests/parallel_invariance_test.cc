// Thread-invariance suite of the parallel proxy pipeline: the promise
// under test is that ExecutorBackend::kParallel produces a
// bit-identical ProxyRunReport at every thread count — including the
// shard_* telemetry, which depends only on the shard map and the
// workload — and that the parallel backend matches the serial indexed
// executor on every field except the shard block (absent on the serial
// side by construction). Scenarios cover the full feature surface that
// rides on the probe path: faults + retries, the circuit breaker, the
// parse cache, the paged trace store, mid-epoch churn, and clean runs.

#include <vector>

#include <gtest/gtest.h>

#include "policies/policy_factory.h"
#include "sim/config.h"
#include "sim/experiment.h"
#include "sim/proxy.h"
#include "trace/trace_store.h"

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

/// The hard arm: every fault class firing, retries, and the breaker.
SimulationConfig FaultyConfig() {
  SimulationConfig config = SmallConfig();
  config.faults.timeout_rate = 0.1;
  config.faults.server_error_rate = 0.05;
  config.faults.truncation_rate = 0.05;
  config.faults.corruption_rate = 0.05;
  config.faults.etag_storm_rate = 0.1;
  config.faults.outage_enter_rate = 0.02;
  config.faults.outage_exit_rate = 0.3;
  config.retry.max_retries = 2;
  config.breaker.enabled = true;
  config.breaker.failure_threshold = 3;
  return config;
}

/// Named scenario grid shared by the sweeps below.
struct Scenario {
  const char* name;
  SimulationConfig config;
};

std::vector<Scenario> ProxyScenarios() {
  std::vector<Scenario> scenarios;
  scenarios.push_back({"clean", SmallConfig()});
  scenarios.push_back({"faulty+breaker", FaultyConfig()});
  Scenario cached{"faulty+parse-cache", FaultyConfig()};
  cached.config.parse_cache = true;
  scenarios.push_back(cached);
  Scenario paged{"faulty+paged-trace", FaultyConfig()};
  paged.config.trace_backend = TraceBackend::kPaged;
  paged.config.trace_store.page_size = 64;
  paged.config.trace_store.cache_pages = 2;
  scenarios.push_back(paged);
  return scenarios;
}

TEST(ParallelInvarianceTest, ProxyReportsBitIdenticalAcrossThreadCounts) {
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  for (const Scenario& scenario : ProxyScenarios()) {
    SimulationConfig config = scenario.config;
    config.executor_backend = ExecutorBackend::kParallel;
    for (uint64_t seed : {11u, 42u}) {
      config.threads = 1;
      auto baseline = RunProxyOnce(config, spec, seed);
      ASSERT_TRUE(baseline.ok())
          << scenario.name << ": " << baseline.status().ToString();
      // The shard telemetry is live on the parallel backend.
      EXPECT_GT(baseline->shard_count, 0u) << scenario.name;
      for (int threads : {2, 4, 8}) {
        config.threads = threads;
        auto report = RunProxyOnce(config, spec, seed);
        ASSERT_TRUE(report.ok())
            << scenario.name << ": " << report.status().ToString();
        ASSERT_EQ(ReportDifference(*baseline, *report), "")
            << scenario.name << " seed " << seed << " threads " << threads;
      }
    }
  }
}

TEST(ParallelInvarianceTest, ParallelMatchesSerialModuloShardBlock) {
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  ReportEqualityOptions options;
  options.shard_stats = false;
  for (const Scenario& scenario : ProxyScenarios()) {
    SimulationConfig config = scenario.config;
    config.executor_backend = ExecutorBackend::kIndexed;
    auto serial = RunProxyOnce(config, spec, 777);
    config.executor_backend = ExecutorBackend::kParallel;
    config.threads = 4;
    auto parallel = RunProxyOnce(config, spec, 777);
    ASSERT_TRUE(serial.ok())
        << scenario.name << ": " << serial.status().ToString();
    ASSERT_TRUE(parallel.ok())
        << scenario.name << ": " << parallel.status().ToString();
    ASSERT_EQ(ReportDifference(*serial, *parallel, options), "")
        << scenario.name;
    // The excluded block is present only on the parallel side, and its
    // per-shard probe counts must add up to the probes the run issued.
    EXPECT_EQ(serial->shard_count, 0u) << scenario.name;
    ASSERT_EQ(parallel->shard_probes_executed.size(),
              parallel->shard_count)
        << scenario.name;
    std::size_t sharded_probes = 0;
    for (std::size_t per_shard : parallel->shard_probes_executed) {
      sharded_probes += per_shard;
    }
    EXPECT_EQ(sharded_probes, parallel->run.probes_used) << scenario.name;
  }
}

TEST(ParallelInvarianceTest, ChurnReportsBitIdenticalAcrossThreadCounts) {
  SimulationConfig config = FaultyConfig();
  config.churn.enabled = true;
  config.churn.ops_per_chronon = 1.5;
  config.executor_backend = ExecutorBackend::kParallel;
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  for (uint64_t seed : {5u, 99u}) {
    config.threads = 1;
    auto baseline = RunChurnOnce(config, spec, seed);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    // Churn actually fired, or the sweep proves nothing.
    EXPECT_GT(baseline->churn_cancelled + baseline->churn_edited, 0u);
    for (int threads : {2, 4, 8}) {
      config.threads = threads;
      auto report = RunChurnOnce(config, spec, seed);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ASSERT_EQ(ReportDifference(*baseline, *report), "")
          << "churn seed " << seed << " threads " << threads;
    }
  }
}

TEST(ParallelInvarianceTest, ChurnParallelMatchesSerialMonitor) {
  SimulationConfig config = FaultyConfig();
  config.churn.enabled = true;
  config.churn.ops_per_chronon = 1.5;
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  ReportEqualityOptions options;
  options.shard_stats = false;
  config.executor_backend = ExecutorBackend::kIndexed;
  auto serial = RunChurnOnce(config, spec, 31337);
  config.executor_backend = ExecutorBackend::kParallel;
  config.threads = 4;
  auto parallel = RunChurnOnce(config, spec, 31337);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(ReportDifference(*serial, *parallel, options), "") << "churn";
}

/// The closed-loop estimation path (knowledge=estimated) feeds probe
/// outcomes back into the scheduler, so any thread-count-dependent
/// ordering in observation ingestion would compound over the epoch.
/// The periodic feed workload keeps the estimator busy enough that the
/// loop actually steers the schedule.
SimulationConfig AdaptiveConfig() {
  SimulationConfig config = SmallConfig();
  config.dataset = DatasetKind::kFeedWorkload;
  config.knowledge = KnowledgeModel::kEstimated;
  config.faults.timeout_rate = 0.05;
  config.faults.server_error_rate = 0.05;
  config.retry.max_retries = 1;
  return config;
}

TEST(ParallelInvarianceTest, AdaptiveReportsBitIdenticalAcrossThreadCounts) {
  SimulationConfig config = AdaptiveConfig();
  config.executor_backend = ExecutorBackend::kParallel;
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  for (uint64_t seed : {13u, 77u}) {
    config.threads = 1;
    auto baseline = RunProxyOnce(config, spec, seed);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    // The loop actually closed, or the sweep proves nothing.
    EXPECT_GT(baseline->estimation_update_events, 0u);
    EXPECT_GT(baseline->estimation_predicted_eis, 0u);
    for (int threads : {2, 4, 8}) {
      config.threads = threads;
      auto report = RunProxyOnce(config, spec, seed);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ASSERT_EQ(ReportDifference(*baseline, *report), "")
          << "adaptive seed " << seed << " threads " << threads;
    }
  }
}

TEST(ParallelInvarianceTest, AdaptiveParallelMatchesSerialModuloShardBlock) {
  SimulationConfig config = AdaptiveConfig();
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  ReportEqualityOptions options;
  options.shard_stats = false;
  config.executor_backend = ExecutorBackend::kIndexed;
  auto serial = RunProxyOnce(config, spec, 31337);
  config.executor_backend = ExecutorBackend::kParallel;
  config.threads = 4;
  auto parallel = RunProxyOnce(config, spec, 31337);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(ReportDifference(*serial, *parallel, options), "") << "adaptive";
}

/// Notification payloads, not just counters: the items delivered with
/// every captured t-interval must match the serial proxy item for item,
/// in delivery order.
TEST(ParallelInvarianceTest, NotificationPayloadsMatchSerial) {
  SimulationConfig config = FaultyConfig();
  config.parse_cache = true;
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  const uint64_t seed = 4242;

  auto run_with = [&](ExecutorBackend backend, int threads,
                      std::vector<ProxyNotification>* out)
      -> Result<ProxyRunReport> {
    UpdateTrace trace(0, 0);
    std::optional<TraceStore> store;
    PULLMON_ASSIGN_OR_RETURN(MonitoringProblem problem,
                             BuildProblem(config, seed, &trace, &store));
    FeedNetwork network(&trace, static_cast<std::size_t>(
                                    config.feed_buffer_capacity));
    PolicyOptions po;
    po.random_seed = seed ^ 0x5bf03635ULL;
    po.num_resources = problem.num_resources;
    PULLMON_ASSIGN_OR_RETURN(auto policy, MakePolicy(spec.policy, po));
    ProxyOptions popts;
    popts.faults = config.faults;
    popts.fault_seed =
        config.fault_seed ^ (seed * 0x9E3779B97F4A7C15ULL);
    popts.retry = config.retry;
    popts.breaker = config.breaker;
    popts.parse_cache = config.parse_cache;
    popts.backend = backend;
    popts.threads = threads;
    MonitoringProxy proxy(&problem, &network, policy.get(), spec.mode,
                          popts);
    PULLMON_ASSIGN_OR_RETURN(ProxyRunReport report, proxy.Run());
    *out = proxy.notifications();
    return report;
  };

  std::vector<ProxyNotification> serial_notes;
  std::vector<ProxyNotification> parallel_notes;
  auto serial = run_with(ExecutorBackend::kIndexed, 1, &serial_notes);
  auto parallel = run_with(ExecutorBackend::kParallel, 3, &parallel_notes);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_GT(serial_notes.size(), 0u);
  ASSERT_EQ(serial_notes.size(), parallel_notes.size());
  for (std::size_t i = 0; i < serial_notes.size(); ++i) {
    const ProxyNotification& s = serial_notes[i];
    const ProxyNotification& p = parallel_notes[i];
    EXPECT_EQ(s.profile, p.profile) << "notification " << i;
    EXPECT_EQ(s.t_interval_index, p.t_interval_index)
        << "notification " << i;
    EXPECT_EQ(s.chronon, p.chronon) << "notification " << i;
    ASSERT_EQ(s.items.size(), p.items.size()) << "notification " << i;
    for (std::size_t j = 0; j < s.items.size(); ++j) {
      EXPECT_TRUE(s.items[j] == p.items[j])
          << "notification " << i << " item " << j;
    }
  }
}

}  // namespace
}  // namespace pullmon
