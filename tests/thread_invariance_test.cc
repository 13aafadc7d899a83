// ExperimentRunner's header promise: results are bitwise identical
// regardless of the thread count. Each repetition fills its own record
// slot and the slots are folded in repetition order on one thread, so
// the Welford accumulation sequence — and therefore every bit of every
// mean and variance — never depends on worker scheduling. These tests
// would catch any regression back to per-thread accumulators merged in
// completion order.

#include <cstddef>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/config.h"
#include "sim/experiment.h"

namespace pullmon {
namespace {

SimulationConfig TinyConfig() {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 15;
  config.num_profiles = 20;
  config.epoch_length = 100;
  config.lambda = 6.0;
  config.budget = 2;
  return config;
}

/// Bitwise equality of doubles — EXPECT_DOUBLE_EQ tolerates nothing
/// here either (it is ULP-based), but memcmp states the actual claim.
void ExpectBitsEqual(double a, double b, const char* what) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
      << what << ": " << a << " vs " << b;
}

/// Everything deterministic in a RunningStats. runtime_seconds is wall
/// clock and excluded by the caller.
void ExpectStatsBitsEqual(const RunningStats& a, const RunningStats& b,
                          const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  ExpectBitsEqual(a.mean(), b.mean(), what);
  ExpectBitsEqual(a.variance(), b.variance(), what);
  ExpectBitsEqual(a.min(), b.min(), what);
  ExpectBitsEqual(a.max(), b.max(), what);
}

void ExpectResultsBitsEqual(const ComparisonResult& a,
                            const ComparisonResult& b) {
  ASSERT_EQ(a.policies.size(), b.policies.size());
  for (std::size_t i = 0; i < a.policies.size(); ++i) {
    EXPECT_EQ(a.policies[i].spec.Label(), b.policies[i].spec.Label());
    ExpectStatsBitsEqual(a.policies[i].gc, b.policies[i].gc, "gc");
    ExpectStatsBitsEqual(a.policies[i].probes_used,
                         b.policies[i].probes_used, "probes_used");
    // runtime_seconds: only the sample count is deterministic.
    EXPECT_EQ(a.policies[i].runtime_seconds.count(),
              b.policies[i].runtime_seconds.count());
  }
  ExpectStatsBitsEqual(a.t_intervals, b.t_intervals, "t_intervals");
  ExpectStatsBitsEqual(a.eis, b.eis, "eis");
  ASSERT_EQ(a.offline.has_value(), b.offline.has_value());
  if (a.offline.has_value()) {
    ExpectStatsBitsEqual(a.offline->gc, b.offline->gc, "offline gc");
    ExpectBitsEqual(a.offline->guaranteed_factor,
                    b.offline->guaranteed_factor, "guaranteed_factor");
  }
}

TEST(ThreadInvarianceTest, RunnerIdenticalAcrossThreadCounts) {
  SimulationConfig config = TinyConfig();
  std::vector<PolicySpec> specs = StandardPolicySpecs();
  // 7 repetitions: not a multiple of any thread count under test, so
  // the striping is uneven and any completion-order dependence shows.
  std::vector<ComparisonResult> results;
  for (int threads : {1, 2, 4}) {
    ExperimentRunner runner(7, 20260806, threads);
    auto result = runner.Run(config, specs);
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    results.push_back(*result);
  }
  ExpectResultsBitsEqual(results[0], results[1]);
  ExpectResultsBitsEqual(results[0], results[2]);
}

TEST(ThreadInvarianceTest, HoldsWithOfflineSolver) {
  SimulationConfig config = TinyConfig();
  config.num_profiles = 12;
  config.epoch_length = 60;
  std::vector<PolicySpec> specs = {{"MRSF", ExecutionMode::kPreemptive}};
  ExperimentRunner serial(5, 99, 1);
  ExperimentRunner threaded(5, 99, 3);
  auto a = serial.Run(config, specs, /*include_offline=*/true);
  auto b = threaded.Run(config, specs, /*include_offline=*/true);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectResultsBitsEqual(*a, *b);
}

TEST(ThreadInvarianceTest, ProxyPathWithFaultsAndCacheIsThreadSafe) {
  // The physical proxy path — where the parse cache and arena live —
  // claims determinism in (config, spec, seed). Run the same seeds
  // serially and striped across 4 threads (each RunProxyOnce builds
  // its own network, arena, and cache; nothing is shared) with faults,
  // retries, storms, and the cache enabled: every report must come
  // back bit-for-bit identical to its serial twin.
  SimulationConfig config = TinyConfig();
  config.faults.timeout_rate = 0.08;
  config.faults.corruption_rate = 0.05;
  config.faults.etag_storm_rate = 0.1;
  config.retry.max_retries = 2;
  config.parse_cache = true;
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  constexpr int kReps = 6;

  std::vector<ProxyRunReport> serial;
  for (int rep = 0; rep < kReps; ++rep) {
    auto report = RunProxyOnce(config, spec, 1000 + rep);
    ASSERT_TRUE(report.ok());
    serial.push_back(*report);
  }

  std::vector<ProxyRunReport> threaded(kReps);
  std::vector<std::thread> workers;
  constexpr int kThreads = 4;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int rep = w; rep < kReps; rep += kThreads) {
        auto report = RunProxyOnce(config, spec, 1000 + rep);
        if (report.ok()) threaded[rep] = *report;
      }
    });
  }
  for (auto& worker : workers) worker.join();

  for (int rep = 0; rep < kReps; ++rep) {
    const ProxyRunReport& a = serial[rep];
    const ProxyRunReport& b = threaded[rep];
    ExpectBitsEqual(a.run.completeness.GainedCompleteness(),
                    b.run.completeness.GainedCompleteness(), "gc");
    EXPECT_EQ(a.run.probes_used, b.run.probes_used) << "rep " << rep;
    EXPECT_EQ(a.probes_failed, b.probes_failed) << "rep " << rep;
    EXPECT_EQ(a.retries_issued, b.retries_issued) << "rep " << rep;
    EXPECT_EQ(a.items_parsed, b.items_parsed) << "rep " << rep;
    EXPECT_EQ(a.feed_bytes, b.feed_bytes) << "rep " << rep;
    EXPECT_EQ(a.parse_cache_hits, b.parse_cache_hits) << "rep " << rep;
    EXPECT_EQ(a.parse_cache_invalidations, b.parse_cache_invalidations)
        << "rep " << rep;
    EXPECT_EQ(a.notifications_delivered, b.notifications_delivered)
        << "rep " << rep;
    EXPECT_TRUE(static_cast<const FaultStats&>(a) ==
                static_cast<const FaultStats&>(b))
        << "rep " << rep;
  }
}

}  // namespace
}  // namespace pullmon
