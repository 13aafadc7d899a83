// Differential suite of the paged trace store against its in-memory
// oracle: ~200 seeded traces (Poisson, auction, perturbed; page sizes
// down to the minimum and cache budgets down to one page) asserting
// event-for-event equality on both read paths (per-resource cursors
// and the chronological streaming merge), plus full ProxyRunReport
// equality between the two trace backends on clean and faulty runs —
// the paged replay must not change one probe, counter, or
// notification. UpdateTrace stays verbatim; any drift here is a store
// bug by definition.

#include <vector>

#include <gtest/gtest.h>

#include "policies/mrsf.h"
#include "sim/config.h"
#include "sim/experiment.h"
#include "sim/proxy.h"
#include "trace/auction_generator.h"
#include "trace/perturb.h"
#include "trace/poisson_generator.h"
#include "trace/trace_store.h"
#include "trace/update_trace.h"
#include "util/random.h"

namespace pullmon {
namespace {

/// Both read paths against the oracle: EventsFor cursor per resource,
/// ReadResource, and the streaming chronological merge.
void ExpectStoreMatchesTrace(const TraceStore& store,
                             const UpdateTrace& trace) {
  ASSERT_EQ(store.num_resources(), trace.num_resources());
  ASSERT_EQ(store.epoch_length(), trace.epoch_length());
  ASSERT_EQ(store.TotalEvents(), trace.TotalEvents());
  EXPECT_DOUBLE_EQ(store.MeanIntensity(), trace.MeanIntensity());

  for (ResourceId r = 0; r < trace.num_resources(); ++r) {
    const std::vector<Chronon>& expected = trace.EventsFor(r);
    std::vector<Chronon> read;
    ASSERT_TRUE(store.ReadResource(r, &read).ok()) << "resource " << r;
    ASSERT_EQ(read, expected) << "resource " << r;

    auto cursor = store.EventsFor(r);
    std::vector<Chronon> streamed;
    Chronon t = 0;
    while (cursor.Next(&t)) streamed.push_back(t);
    ASSERT_TRUE(cursor.status().ok()) << cursor.status().ToString();
    ASSERT_EQ(streamed, expected) << "resource " << r;
  }

  std::vector<UpdateEvent> expected_merge = trace.ChronologicalEvents();
  StreamingTraceReader reader(&store);
  std::vector<UpdateEvent> merged;
  UpdateEvent event;
  while (reader.Next(&event)) merged.push_back(event);
  ASSERT_TRUE(reader.status().ok()) << reader.status().ToString();
  ASSERT_EQ(merged.size(), expected_merge.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    ASSERT_TRUE(merged[i] == expected_merge[i]) << "event " << i;
  }
}

/// The page-geometry grid every generator sweep crosses: page sizes
/// down to the 16-byte floor, cache budgets down to one page.
std::vector<TraceStoreOptions> GeometryGrid() {
  std::vector<TraceStoreOptions> grid;
  for (std::size_t page_size : {std::size_t{16}, std::size_t{64},
                                std::size_t{256}}) {
    for (std::size_t cache_pages : {std::size_t{1}, std::size_t{8}}) {
      TraceStoreOptions options;
      options.page_size = page_size;
      options.cache_pages = cache_pages;
      grid.push_back(options);
    }
  }
  return grid;
}

TEST(TraceStoreDifferentialTest, PoissonTracesAcrossGeometries) {
  // 20 seeds x 6 geometries = 120 store instances, plus heterogeneous
  // intensities on odd seeds. The store-direct generator must consume
  // the Rng identically (same seed, same events) — FromTrace is
  // checked alongside as the conversion path.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    PoissonTraceOptions options;
    options.num_resources = 30;
    options.epoch_length = 120;
    options.lambda = seed % 3 == 0 ? 1.5 : 6.0;
    Rng trace_rng(seed * 7919 + 1);
    auto trace = GeneratePoissonTrace(options, &trace_rng);
    ASSERT_TRUE(trace.ok()) << trace.status().ToString();
    for (const TraceStoreOptions& geometry : GeometryGrid()) {
      Rng store_rng(seed * 7919 + 1);
      auto store = GeneratePoissonTraceStore(options, &store_rng,
                                             geometry);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      ASSERT_TRUE(store->VerifyAllPages().ok());
      ExpectStoreMatchesTrace(*store, *trace);
      if (HasFatalFailure()) return;
    }
    auto converted = TraceStore::FromTrace(*trace);
    ASSERT_TRUE(converted.ok()) << converted.status().ToString();
    ExpectStoreMatchesTrace(*converted, *trace);
    if (HasFatalFailure()) return;
  }
}

TEST(TraceStoreDifferentialTest, AuctionTracesAcrossGeometries) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    AuctionTraceOptions options;
    options.num_auctions = 25;
    options.epoch_length = 150;
    Rng rng(seed * 104729 + 3);
    auto auctions = GenerateAuctionTrace(options, &rng);
    ASSERT_TRUE(auctions.ok()) << auctions.status().ToString();
    auto trace = auctions->ToUpdateTrace();
    ASSERT_TRUE(trace.ok()) << trace.status().ToString();
    for (const TraceStoreOptions& geometry : GeometryGrid()) {
      auto store = auctions->ToTraceStore(geometry);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      ASSERT_TRUE(store->VerifyAllPages().ok());
      ExpectStoreMatchesTrace(*store, *trace);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(TraceStoreDifferentialTest, PerturbedTracesAcrossGeometries) {
  // Store-to-store perturbation versus trace-to-trace with the same
  // seeds: jitter scrambles append order inside each resource and
  // spurious/miss events change counts — the staging sort/dedup path.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    PoissonTraceOptions options;
    options.num_resources = 20;
    options.epoch_length = 100;
    options.lambda = 4.0;
    TracePerturbationOptions perturbation;
    perturbation.jitter_stddev = 2.0;
    perturbation.miss_probability = 0.15;
    perturbation.spurious_rate = 1.0;

    Rng truth_rng(seed * 31 + 7);
    auto truth = GeneratePoissonTrace(options, &truth_rng);
    ASSERT_TRUE(truth.ok());
    Rng perturb_rng(seed * 63 + 11);
    auto estimated = PerturbTrace(*truth, perturbation, &perturb_rng);
    ASSERT_TRUE(estimated.ok()) << estimated.status().ToString();

    for (const TraceStoreOptions& geometry : GeometryGrid()) {
      Rng store_truth_rng(seed * 31 + 7);
      auto truth_store = GeneratePoissonTraceStore(
          options, &store_truth_rng, geometry);
      ASSERT_TRUE(truth_store.ok());
      Rng store_perturb_rng(seed * 63 + 11);
      auto estimated_store = PerturbTrace(
          *truth_store, perturbation, &store_perturb_rng, geometry);
      ASSERT_TRUE(estimated_store.ok())
          << estimated_store.status().ToString();
      ASSERT_TRUE(estimated_store->VerifyAllPages().ok());
      ExpectStoreMatchesTrace(*estimated_store, *estimated);
      if (HasFatalFailure()) return;
    }
  }
}

// --- Full proxy-path equality between the backends. -------------------

SimulationConfig SmallConfig() {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 25;
  config.num_profiles = 35;
  config.epoch_length = 150;
  config.lambda = 8.0;
  config.budget = 2;
  return config;
}

TEST(TraceStoreDifferentialTest, ProxyReportsIdenticalCleanRun) {
  SimulationConfig config = SmallConfig();
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  for (DatasetKind dataset :
       {DatasetKind::kPoisson, DatasetKind::kAuction}) {
    config.dataset = dataset;
    for (uint64_t seed : {404u, 1234u, 9001u}) {
      config.trace_backend = TraceBackend::kInMemory;
      auto in_memory = RunProxyOnce(config, spec, seed);
      config.trace_backend = TraceBackend::kPaged;
      auto paged = RunProxyOnce(config, spec, seed);
      ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
      ASSERT_TRUE(paged.ok()) << paged.status().ToString();
      ASSERT_EQ(
          ReportDifference(*in_memory, *paged, {.trace_stats = false}), "");
      // The backends report their own telemetry honestly: zeros on the
      // in-memory side, a real compressed footprint on the paged side.
      EXPECT_EQ(in_memory->trace_bytes_stored, 0u);
      EXPECT_EQ(in_memory->trace_pages_written, 0u);
      EXPECT_GT(paged->trace_pages_written, 0u);
      EXPECT_GT(paged->trace_bytes_stored, 0u);
      EXPECT_GT(paged->trace_in_memory_bytes, paged->trace_bytes_stored);
    }
  }
}

TEST(TraceStoreDifferentialTest, ProxyReportsIdenticalUnderFaults) {
  // The hard arm: timeouts, corruption, ETag storms, outages, retries,
  // and the breaker all active, on both executor backends, with a tiny
  // page cache forcing eviction churn during profile derivation.
  SimulationConfig config = SmallConfig();
  config.faults.timeout_rate = 0.1;
  config.faults.server_error_rate = 0.05;
  config.faults.truncation_rate = 0.05;
  config.faults.corruption_rate = 0.05;
  config.faults.etag_storm_rate = 0.1;
  config.faults.outage_enter_rate = 0.02;
  config.faults.outage_exit_rate = 0.3;
  config.retry.max_retries = 2;
  config.trace_store.page_size = 32;
  config.trace_store.cache_pages = 1;
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  for (ExecutorBackend backend :
       {ExecutorBackend::kIndexed, ExecutorBackend::kReference}) {
    config.executor_backend = backend;
    config.trace_backend = TraceBackend::kInMemory;
    auto in_memory = RunProxyOnce(config, spec, 777);
    config.trace_backend = TraceBackend::kPaged;
    auto paged = RunProxyOnce(config, spec, 777);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    // The faults actually fired, or this equality proves nothing.
    EXPECT_GT(in_memory->probes_failed, 0u);
    EXPECT_GT(in_memory->corrupt_bodies, 0u);
    ASSERT_EQ(
        ReportDifference(*in_memory, *paged, {.trace_stats = false}), "");
    // One-page budget + multi-page resources => the derivation path
    // actually churned the cache.
    EXPECT_GT(paged->trace_cache_evictions, 0u);
  }
}

TEST(TraceStoreDifferentialTest, PagedProxyRejectsInMemoryNetwork) {
  // Guard rail: asking the proxy for the paged backend while handing it
  // an in-memory replay is a configuration error, not a silent
  // fallback.
  SimulationConfig config = SmallConfig();
  UpdateTrace trace(0, 0);
  auto problem = BuildProblem(config, 42, &trace);
  ASSERT_TRUE(problem.ok());
  FeedNetwork network(&trace, 8);
  MrsfPolicy policy;
  ProxyOptions options;
  options.trace_backend = TraceBackend::kPaged;
  MonitoringProxy proxy(&*problem, &network, &policy,
                        ExecutionMode::kPreemptive, options);
  auto report = proxy.Run();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pullmon
