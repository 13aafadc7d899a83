// Pass-through guarantee of the probe hot path's parse cache: the
// cache replays only documents byte-identical to what parsing would
// have produced, so every deterministic ProxyRunReport field — except
// the parse_cache_* counters themselves — must be exactly equal with
// the cache on and off, on both executor backends, and under faults,
// outages, ETag storms, and retries. Any drift means a cached replay
// changed an observable outcome.

#include <gtest/gtest.h>

#include "policies/mrsf.h"
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

TEST(HotpathPassthroughTest, CacheOnOffIdenticalCleanRunBothBackends) {
  SimulationConfig config = SmallConfig();
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  for (ExecutorBackend backend :
       {ExecutorBackend::kIndexed, ExecutorBackend::kReference}) {
    config.executor_backend = backend;
    config.parse_cache = false;
    auto off = RunProxyOnce(config, spec, 404);
    config.parse_cache = true;
    auto on = RunProxyOnce(config, spec, 404);
    ASSERT_TRUE(off.ok());
    ASSERT_TRUE(on.ok());
    EXPECT_EQ(
        ReportDifference(*off, *on, {.parse_cache_stats = false}), "");
    // The disabled path reports no cache activity at all.
    EXPECT_EQ(off->parse_cache_hits, 0u);
    EXPECT_EQ(off->parse_cache_misses, 0u);
    EXPECT_EQ(off->parse_cache_invalidations, 0u);
    EXPECT_EQ(off->parse_cache_bytes_saved, 0u);
  }
}

TEST(HotpathPassthroughTest, CacheOnOffIdenticalUnderFaultsAndRetries) {
  // The hard arm: timeouts, server errors, corruption, truncation,
  // ETag storms, outages, and retries all active. The cache must not
  // change one probe, one counter, or one notification.
  SimulationConfig config = SmallConfig();
  config.faults.timeout_rate = 0.1;
  config.faults.server_error_rate = 0.05;
  config.faults.truncation_rate = 0.05;
  config.faults.corruption_rate = 0.05;
  config.faults.etag_storm_rate = 0.1;
  config.faults.outage_enter_rate = 0.02;
  config.faults.outage_exit_rate = 0.3;
  config.retry.max_retries = 2;
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  for (ExecutorBackend backend :
       {ExecutorBackend::kIndexed, ExecutorBackend::kReference}) {
    config.executor_backend = backend;
    config.parse_cache = false;
    auto off = RunProxyOnce(config, spec, 777);
    config.parse_cache = true;
    auto on = RunProxyOnce(config, spec, 777);
    ASSERT_TRUE(off.ok());
    ASSERT_TRUE(on.ok());
    // The faults actually fired and the cache was actually exercised,
    // or this test proves nothing. Hits stay at zero on this oracle
    // path by design — the demand-driven scheduler probes a resource
    // when it updated, so full bodies carry fresh content (the
    // estimated arm below replays hits).
    EXPECT_GT(off->probes_failed, 0u);
    EXPECT_GT(off->corrupt_bodies, 0u);
    EXPECT_GT(on->parse_cache_misses, 0u);
    EXPECT_GT(on->parse_cache_invalidations, 0u);
    EXPECT_EQ(
        ReportDifference(*off, *on, {.parse_cache_stats = false}), "");
  }

  // The estimated-knowledge arm replays real hits end to end: forecast
  // and explore probes refetch feeds that have not changed, and the
  // storms turn those 304s into full bodies the cache already holds.
  config.executor_backend = ExecutorBackend::kIndexed;
  config.knowledge = KnowledgeModel::kEstimated;
  config.dataset = DatasetKind::kFeedWorkload;
  config.faults.etag_storm_rate = 0.3;
  config.parse_cache = false;
  auto off = RunProxyOnce(config, spec, 777);
  config.parse_cache = true;
  auto on = RunProxyOnce(config, spec, 777);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_GT(on->parse_cache_hits, 0u);
  EXPECT_EQ(ReportDifference(*off, *on, {.parse_cache_stats = false}), "");
}

TEST(HotpathPassthroughTest, NotificationPayloadsIdenticalWithCache) {
  // Beyond counters: the items handed to clients must be the same,
  // probe for probe — a stale replay would surface here first.
  SimulationConfig config = SmallConfig();
  config.faults.etag_storm_rate = 0.2;
  config.faults.corruption_rate = 0.05;
  config.retry.max_retries = 1;
  UpdateTrace trace(0, 0);
  auto problem = BuildProblem(config, 1717, &trace);
  ASSERT_TRUE(problem.ok());

  auto run = [&](bool with_cache) {
    FeedNetwork network(&trace, 8);
    MrsfPolicy policy;
    ProxyOptions options;
    options.faults = config.faults;
    options.retry = config.retry;
    options.fault_seed = 5150;
    options.parse_cache = with_cache;
    MonitoringProxy proxy(&*problem, &network, &policy,
                          ExecutionMode::kPreemptive, options);
    auto report = proxy.Run();
    EXPECT_TRUE(report.ok());
    return proxy.notifications();
  };

  std::vector<ProxyNotification> off = run(false);
  std::vector<ProxyNotification> on = run(true);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].profile, on[i].profile);
    EXPECT_EQ(off[i].t_interval_index, on[i].t_interval_index);
    EXPECT_EQ(off[i].chronon, on[i].chronon);
    ASSERT_EQ(off[i].items.size(), on[i].items.size()) << "notif " << i;
    for (std::size_t k = 0; k < off[i].items.size(); ++k) {
      EXPECT_TRUE(off[i].items[k] == on[i].items[k])
          << "notif " << i << " item " << k;
    }
  }
}

}  // namespace
}  // namespace pullmon
