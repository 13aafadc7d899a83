// Probe hot-path throughput bench: the zero-copy data path (view-based
// conditional fetches, arena-pooled XML parsing, ETag/content-keyed
// parse cache) against the seed data path (a copied body per fetch,
// heap-node XML parsing, no cache) at the Figure-5 substrate scale
// (n=400, K=1000, lambda=50). Two regimes per arm pair:
//
//   conditional — clients hold per-resource validators, so unchanged
//       feeds answer 304 and only fresh content is parsed. This is the
//       proxy's normal regime; the win here is arena vs heap parsing.
//   storm — validators are unusable (the ETag-storm / validator-less
//       server case), so every probe pays a full body. The cold arm
//       reparses every body; the warm arm's content key replays
//       unchanged bodies after one FNV pass. This is the regime the
//       parse cache exists for, and the acceptance gate lives here:
//       warm-cache throughput must be >= 2x the seed path, or the
//       binary exits 1 (disable with --gate=false, e.g. under asan).
//
// Every arm pair runs the identical probe sequence and must agree on
// the total number of items parsed — a checksum divergence means the
// cache replayed a wrong document and fails the run regardless of the
// gate flag.
//
// A separate instrumented arm counts global operator new/delete calls
// in the steady state (all updates published, feeds unchanged) and
// proves the warm path performs zero heap allocations per probe, both
// through the cache (content-key replay) and through a full arena
// reparse. Results land in BENCH_hotpath.json by default; CI diffs the
// JSON against the committed baseline at the repo root.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "bench_util.h"
#include "feeds/atom.h"
#include "feeds/feed_server.h"
#include "feeds/parse_cache.h"
#include "trace/poisson_generator.h"
#include "util/arena.h"
#include "util/flags.h"
#include "util/table_printer.h"

// ---------------------------------------------------------------------
// Global allocation counter: every path to the heap in this binary goes
// through these replacements. The relaxed atomic adds the same tiny
// cost to every arm, so relative throughput is unaffected.
// ---------------------------------------------------------------------

static std::atomic<std::size_t> g_heap_allocs{0};

static void* CountedAlloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pullmon {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

struct HotpathOptions {
  bench::BenchOptions common;
  bool gate = true;
  int probes_per_chronon = 40;
};

HotpathOptions ParseHotpathFlags(int argc, char** argv) {
  FlagParser flags("bench_hotpath",
                   "Probe hot-path throughput: zero-copy arena/cache "
                   "data path vs the seed string/heap path");
  flags.AddInt64("seed", 9191, "base random seed of the repetitions");
  flags.AddInt64("reps", 3, "repetitions (fresh trace per rep)");
  flags.AddString("json", "BENCH_hotpath.json",
                  "write machine-readable results (BENCH_pullmon.json "
                  "schema; empty = disabled)");
  flags.AddBool("gate", true,
                "fail (exit 1) when the warm-cache storm arm is below "
                "2x the seed path or the steady state allocates");
  flags.AddInt64("probes-per-chronon", 40,
                 "round-robin probes issued per chronon per arm");
  Status status = flags.Parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.Usage();
    std::exit(0);
  }
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n" << flags.Usage();
    std::exit(2);
  }
  HotpathOptions options;
  options.common.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  options.common.reps = static_cast<int>(flags.GetInt64("reps"));
  options.common.json_path = flags.GetString("json");
  options.gate = flags.GetBool("gate");
  options.probes_per_chronon =
      static_cast<int>(flags.GetInt64("probes-per-chronon"));
  if (options.common.reps < 1 || options.probes_per_chronon < 1) {
    std::cerr << "--reps and --probes-per-chronon must be >= 1\n";
    std::exit(2);
  }
  return options;
}

// The Figure-5 substrate: 400 resources, 1000 chronons, lambda=50
// updates per resource, feed buffers of 8 items.
constexpr int kResources = 400;
constexpr Chronon kEpoch = 1000;
constexpr double kLambda = 50.0;
constexpr std::size_t kBufferCapacity = 8;

Result<UpdateTrace> MakeTrace(uint64_t seed) {
  PoissonTraceOptions options;
  options.num_resources = kResources;
  options.epoch_length = kEpoch;
  options.lambda = kLambda;
  Rng rng(seed);
  return GeneratePoissonTrace(options, &rng);
}

/// What one arm measured over a full trace replay.
struct ArmResult {
  double seconds = 0.0;
  std::size_t probes = 0;
  std::size_t bytes = 0;        // full-body bytes that crossed the wire
  std::size_t items = 0;        // checksum: items parsed or replayed
  std::size_t full_bodies = 0;  // probes that carried a body
};

/// The seed data path, conditional regime: each full response's body is
/// copied out of the served view, then parsed by the heap-node parser.
Result<ArmResult> RunSeedConditional(const UpdateTrace& trace,
                                     int probes_per_chronon) {
  FeedNetwork network(&trace, kBufferCapacity);
  std::vector<std::string> etags(kResources);
  ArmResult out;
  auto begin = Clock::now();
  for (Chronon t = 0; t < kEpoch; ++t) {
    network.AdvanceTo(t);
    for (int k = 0; k < probes_per_chronon; ++k) {
      ResourceId r = static_cast<ResourceId>(
          (static_cast<long long>(t) * probes_per_chronon + k) %
          kResources);
      std::string& etag = etags[static_cast<std::size_t>(r)];
      PULLMON_ASSIGN_OR_RETURN(FeedServer::ConditionalFetchView fetch,
                               network.ProbeConditionalView(r, etag));
      ++out.probes;
      etag.assign(fetch.etag);
      if (fetch.not_modified) continue;
      ++out.full_bodies;
      std::string body(fetch.body);
      out.bytes += body.size();
      PULLMON_ASSIGN_OR_RETURN(FeedDocument doc, ParseFeed(body));
      out.items += doc.items.size();
    }
  }
  out.seconds = Seconds(begin, Clock::now());
  return out;
}

/// The zero-copy path, conditional regime: view-based conditional
/// fetches into the server's reused buffers and the arena parser.
Result<ArmResult> RunWarmConditional(const UpdateTrace& trace,
                                     int probes_per_chronon) {
  FeedNetwork network(&trace, kBufferCapacity);
  std::vector<std::string> etags(kResources);
  Arena arena;
  ArmResult out;
  auto begin = Clock::now();
  for (Chronon t = 0; t < kEpoch; ++t) {
    network.AdvanceTo(t);
    for (int k = 0; k < probes_per_chronon; ++k) {
      ResourceId r = static_cast<ResourceId>(
          (static_cast<long long>(t) * probes_per_chronon + k) %
          kResources);
      std::string& etag = etags[static_cast<std::size_t>(r)];
      PULLMON_ASSIGN_OR_RETURN(FeedServer::ConditionalFetchView fetch,
                               network.ProbeConditionalView(r, etag));
      ++out.probes;
      etag.assign(fetch.etag);
      if (fetch.not_modified) continue;
      ++out.full_bodies;
      out.bytes += fetch.body.size();
      arena.Reset();
      PULLMON_ASSIGN_OR_RETURN(const FeedDocumentView* doc,
                               ParseFeed(fetch.body, &arena));
      out.items += doc->num_items;
    }
  }
  out.seconds = Seconds(begin, Clock::now());
  return out;
}

/// The seed data path, storm regime: validators unusable, every probe
/// fetches and reparses a full body — the pre-cache worst case.
Result<ArmResult> RunSeedStorm(const UpdateTrace& trace,
                               int probes_per_chronon) {
  FeedNetwork network(&trace, kBufferCapacity);
  ArmResult out;
  auto begin = Clock::now();
  for (Chronon t = 0; t < kEpoch; ++t) {
    network.AdvanceTo(t);
    for (int k = 0; k < probes_per_chronon; ++k) {
      ResourceId r = static_cast<ResourceId>(
          (static_cast<long long>(t) * probes_per_chronon + k) %
          kResources);
      std::string body(network.server(r)->FetchView());
      ++out.probes;
      ++out.full_bodies;
      out.bytes += body.size();
      PULLMON_ASSIGN_OR_RETURN(FeedDocument doc, ParseFeed(body));
      out.items += doc.items.size();
    }
  }
  out.seconds = Seconds(begin, Clock::now());
  return out;
}

/// The zero-copy path, storm regime: full bodies as views, and the
/// parse cache's content key replays unchanged bodies (one FNV pass
/// instead of a parse). Served validators are withheld from the cache
/// to model validator instability — hits must come from content alone.
Result<ArmResult> RunWarmCacheStorm(const UpdateTrace& trace,
                                    int probes_per_chronon) {
  FeedNetwork network(&trace, kBufferCapacity);
  Arena arena;
  ParseCache cache(kResources);
  ArmResult out;
  auto begin = Clock::now();
  for (Chronon t = 0; t < kEpoch; ++t) {
    network.AdvanceTo(t);
    for (int k = 0; k < probes_per_chronon; ++k) {
      ResourceId r = static_cast<ResourceId>(
          (static_cast<long long>(t) * probes_per_chronon + k) %
          kResources);
      PULLMON_ASSIGN_OR_RETURN(
          FeedServer::ConditionalFetchView fetch,
          network.ProbeConditionalView(r, std::string_view()));
      ++out.probes;
      ++out.full_bodies;
      out.bytes += fetch.body.size();
      PULLMON_ASSIGN_OR_RETURN(
          const FeedDocument* replay,
          cache.Lookup(r, std::string_view(), fetch.body, false));
      if (replay != nullptr) {
        out.items += replay->items.size();
        continue;
      }
      arena.Reset();
      PULLMON_ASSIGN_OR_RETURN(const FeedDocumentView* doc,
                               ParseFeed(fetch.body, &arena));
      out.items +=
          cache.Store(r, std::string_view(), fetch.body, doc->Materialize())
              .items.size();
    }
  }
  out.seconds = Seconds(begin, Clock::now());
  return out;
}

/// Steady-state allocation audit: a small fully-published substrate,
/// warmed up, then probed repeatedly while counting operator new calls.
/// Returns allocations per probe for the cache-replay path and for a
/// full arena reparse per probe; both must be exactly zero.
struct AllocAudit {
  double cache_allocs_per_probe = 0.0;
  double parse_allocs_per_probe = 0.0;
  bool ok = false;
};

Result<AllocAudit> RunAllocAudit() {
  PoissonTraceOptions trace_options;
  trace_options.num_resources = 32;
  trace_options.epoch_length = 64;
  trace_options.lambda = 4.0;
  Rng rng(0xA110C);
  PULLMON_ASSIGN_OR_RETURN(UpdateTrace trace,
                           GeneratePoissonTrace(trace_options, &rng));
  FeedNetwork network(&trace, kBufferCapacity);
  network.AdvanceTo(63);  // everything published; feeds no longer change

  Arena arena;
  ParseCache cache(32);
  // Warm-up: serialize every feed once, size the arena to the largest
  // document, populate the cache.
  for (ResourceId r = 0; r < 32; ++r) {
    PULLMON_ASSIGN_OR_RETURN(
        FeedServer::ConditionalFetchView fetch,
        network.ProbeConditionalView(r, std::string_view()));
    arena.Reset();
    PULLMON_ASSIGN_OR_RETURN(const FeedDocumentView* doc,
                             ParseFeed(fetch.body, &arena));
    cache.Store(r, fetch.etag, fetch.body, doc->Materialize());
  }

  AllocAudit audit;
  constexpr int kProbes = 32 * 50;

  std::size_t before = g_heap_allocs.load(std::memory_order_relaxed);
  std::size_t guard = 0;
  for (int i = 0; i < kProbes; ++i) {
    ResourceId r = static_cast<ResourceId>(i % 32);
    PULLMON_ASSIGN_OR_RETURN(
        FeedServer::ConditionalFetchView fetch,
        network.ProbeConditionalView(r, std::string_view()));
    PULLMON_ASSIGN_OR_RETURN(const FeedDocument* replay,
                             cache.Lookup(r, fetch.etag, fetch.body, false));
    if (replay == nullptr) {
      return Status::Internal("steady-state cache lookup missed");
    }
    guard += replay->items.size();
  }
  audit.cache_allocs_per_probe =
      static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed) -
                          before) /
      kProbes;

  before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < kProbes; ++i) {
    ResourceId r = static_cast<ResourceId>(i % 32);
    PULLMON_ASSIGN_OR_RETURN(
        FeedServer::ConditionalFetchView fetch,
        network.ProbeConditionalView(r, std::string_view()));
    arena.Reset();
    PULLMON_ASSIGN_OR_RETURN(const FeedDocumentView* doc,
                             ParseFeed(fetch.body, &arena));
    guard += doc->num_items;
  }
  audit.parse_allocs_per_probe =
      static_cast<double>(g_heap_allocs.load(std::memory_order_relaxed) -
                          before) /
      kProbes;

  if (guard == 0) return Status::Internal("empty steady-state feeds");
  audit.ok = true;
  return audit;
}

struct ArmStats {
  RunningStats seconds;
  double probes_per_sec = 0.0;
  double bytes_per_sec = 0.0;
  std::size_t items = 0;
  std::size_t probes = 0;
  std::size_t bytes = 0;

  void Fold(const ArmResult& result) {
    seconds.Add(result.seconds);
    items = result.items;
    probes = result.probes;
    bytes = result.bytes;
  }
  void Finish() {
    if (seconds.mean() <= 0.0) return;
    probes_per_sec = static_cast<double>(probes) / seconds.mean();
    bytes_per_sec = static_cast<double>(bytes) / seconds.mean();
  }
};

int RunBench(const HotpathOptions& options) {
  bench::PrintHeader(
      "Probe hot path: zero-copy arena/cache vs the seed string/heap "
      "data path",
      "the warm-cache path sustains >= 2x the seed path's probe "
      "throughput under validator storms, with zero steady-state heap "
      "allocations per probe");
  std::printf(
      "Substrate: n=%d resources, K=%lld chronons, lambda=%.0f, "
      "%d probes/chronon, %d rep(s)\n\n",
      kResources, static_cast<long long>(kEpoch), kLambda,
      options.probes_per_chronon, options.common.reps);

  ArmStats seed_cond, warm_cond, seed_storm, warm_storm;
  for (int rep = 0; rep < options.common.reps; ++rep) {
    uint64_t seed =
        options.common.seed + static_cast<uint64_t>(rep) * 7919;
    auto trace = MakeTrace(seed);
    if (!trace.ok()) {
      std::cerr << trace.status().ToString() << "\n";
      return 1;
    }
    struct Arm {
      ArmStats* stats;
      Result<ArmResult> (*run)(const UpdateTrace&, int);
    };
    const Arm arms[] = {{&seed_cond, RunSeedConditional},
                        {&warm_cond, RunWarmConditional},
                        {&seed_storm, RunSeedStorm},
                        {&warm_storm, RunWarmCacheStorm}};
    for (const Arm& arm : arms) {
      auto result = arm.run(*trace, options.probes_per_chronon);
      if (!result.ok()) {
        std::cerr << result.status().ToString() << "\n";
        return 1;
      }
      arm.stats->Fold(*result);
    }
    // Checksums: identical probe sequences must see identical items —
    // correctness, not performance, so never gated off.
    if (seed_cond.items != warm_cond.items ||
        seed_storm.items != warm_storm.items) {
      std::cerr << "CHECKSUM DIVERGENCE at rep " << rep
                << ": conditional " << seed_cond.items << " vs "
                << warm_cond.items << ", storm " << seed_storm.items
                << " vs " << warm_storm.items << "\n";
      return 1;
    }
  }
  for (ArmStats* stats :
       {&seed_cond, &warm_cond, &seed_storm, &warm_storm}) {
    stats->Finish();
  }

  auto audit = RunAllocAudit();
  if (!audit.ok()) {
    std::cerr << audit.status().ToString() << "\n";
    return 1;
  }

  TablePrinter table({"arm", "regime", "ms/replay", "probes/s",
                      "MB parsed/s", "items"});
  struct Row {
    const char* arm;
    const char* regime;
    const ArmStats* stats;
  };
  const Row rows[] = {{"seed_path", "conditional", &seed_cond},
                      {"warm_arena", "conditional", &warm_cond},
                      {"seed_path", "storm", &seed_storm},
                      {"warm_cache", "storm", &warm_storm}};
  for (const Row& row : rows) {
    table.AddRow(
        {row.arm, row.regime,
         TablePrinter::FormatDouble(row.stats->seconds.mean() * 1e3, 1),
         TablePrinter::FormatDouble(row.stats->probes_per_sec, 0),
         TablePrinter::FormatDouble(row.stats->bytes_per_sec / 1e6, 1),
         StringFormat("%zu", row.stats->items)});
  }
  table.Print(std::cout);

  double storm_speedup =
      seed_storm.seconds.mean() > 0.0 && warm_storm.seconds.mean() > 0.0
          ? seed_storm.seconds.mean() / warm_storm.seconds.mean()
          : 0.0;
  double cond_speedup =
      seed_cond.seconds.mean() > 0.0 && warm_cond.seconds.mean() > 0.0
          ? seed_cond.seconds.mean() / warm_cond.seconds.mean()
          : 0.0;
  std::printf(
      "\nWarm vs seed speedup: %.2fx conditional, %.2fx storm "
      "(gate: storm >= 2x)\n"
      "Steady-state heap allocations per probe: %.4f cache replay, "
      "%.4f arena reparse (gate: both 0)\n",
      cond_speedup, storm_speedup, audit->cache_allocs_per_probe,
      audit->parse_allocs_per_probe);

  bench::JsonBenchWriter json("bench_hotpath", options.common);
  auto add = [&](const char* name, const char* regime,
                 const ArmStats& stats) {
    json.Add({name,
              {{"regime", regime},
               {"probes_per_chronon",
                std::to_string(options.probes_per_chronon)}},
              {{"wall_time_seconds", stats.seconds.mean()},
               {"probes_per_sec", stats.probes_per_sec},
               {"bytes_parsed_per_sec", stats.bytes_per_sec},
               {"items_parsed", static_cast<double>(stats.items)}}});
  };
  add("seed_path_conditional", "conditional", seed_cond);
  add("warm_arena_conditional", "conditional", warm_cond);
  add("seed_path_storm", "storm", seed_storm);
  add("warm_cache_storm", "storm", warm_storm);
  json.Add({"speedup",
            {},
            {{"conditional", cond_speedup}, {"storm", storm_speedup}}});
  json.Add({"steady_state_allocs",
            {},
            {{"cache_allocs_per_probe", audit->cache_allocs_per_probe},
             {"parse_allocs_per_probe", audit->parse_allocs_per_probe}}});
  if (!json.WriteIfRequested(options.common)) return 1;

  if (options.gate) {
    bool failed = false;
    if (storm_speedup < 2.0) {
      std::cerr << "FAIL: warm-cache storm arm below the 2x bar ("
                << TablePrinter::FormatDouble(storm_speedup, 2)
                << "x)\n";
      failed = true;
    }
    if (audit->cache_allocs_per_probe != 0.0 ||
        audit->parse_allocs_per_probe != 0.0) {
      std::cerr << "FAIL: steady-state probe path allocated on the "
                   "heap\n";
      failed = true;
    }
    if (failed) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pullmon

int main(int argc, char** argv) {
  pullmon::HotpathOptions options =
      pullmon::ParseHotpathFlags(argc, argv);
  return pullmon::RunBench(options);
}
