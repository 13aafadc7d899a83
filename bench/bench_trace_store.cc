// Paged trace-store bench: compression and replay throughput of the
// varint-delta page store against the in-memory UpdateTrace oracle, at
// the Figure-5 substrate scale (n=400, K=1000, lambda=50) and a 10x
// arm (K=10000, lambda=500) where resident traces start to hurt.
//
// Two gates (disable with --gate=false, e.g. under asan):
//
//   memory — holding the epoch for replay costs the oracle its
//       measured event storage (UpdateTrace::ApproxMemoryBytes) plus
//       the 8-byte-per-event chronological buffer the replay path
//       materializes; the store holds compressed pages plus its page/
//       resource index. The ratio must be >= 8x on both arms.
//   throughput — streaming chronological replay off the compressed
//       bytes must sustain >= 0.5x the in-memory path's events/sec
//       (materialize ChronologicalEvents, then iterate).
//
// Correctness is never gated off: the store-direct generator must
// produce event-for-event the oracle's trace (same seed, same Rng
// draws), the streaming merge must equal ChronologicalEvents, and the
// full proxy path must report an identical run — same GC, probes, and
// notifications — on both trace backends, clean and under faults. Any
// divergence fails the binary regardless of --gate.
//
// Results land in BENCH_trace_store.json by default; CI diffs the JSON
// against the committed baseline at the repo root.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/config.h"
#include "sim/experiment.h"
#include "trace/poisson_generator.h"
#include "trace/trace_store.h"
#include "util/flags.h"
#include "util/table_printer.h"

namespace pullmon {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

struct TraceStoreBenchOptions {
  bench::BenchOptions common;
  bool gate = true;
};

TraceStoreBenchOptions ParseTraceStoreFlags(int argc, char** argv) {
  FlagParser flags("bench_trace_store",
                   "Paged trace store: compression ratio and streaming "
                   "replay throughput vs the in-memory oracle");
  flags.AddInt64("seed", 2718, "base random seed of the repetitions");
  flags.AddInt64("reps", 3, "repetitions (fresh trace per rep)");
  flags.AddString("json", "BENCH_trace_store.json",
                  "write machine-readable results (BENCH_pullmon.json "
                  "schema; empty = disabled)");
  flags.AddBool("gate", true,
                "fail (exit 1) when compression is below 8x or "
                "streaming replay is below 0.5x the in-memory path");
  Status status = flags.Parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.Usage();
    std::exit(0);
  }
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n" << flags.Usage();
    std::exit(2);
  }
  TraceStoreBenchOptions options;
  options.common.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  options.common.reps = static_cast<int>(flags.GetInt64("reps"));
  if (options.common.reps < 1) {
    std::cerr << "--reps must be >= 1\n";
    std::exit(2);
  }
  options.common.json_path = flags.GetString("json");
  options.gate = flags.GetBool("gate");
  return options;
}

/// One substrate scale under measurement.
struct Arm {
  const char* name;
  int resources;
  Chronon epoch;
  double lambda;
};

constexpr Arm kArms[] = {
    {"fig5_scale", 400, 1000, 50.0},
    {"epoch_10x", 400, 10000, 500.0},
};

/// What one (arm, rep) measured.
struct ArmResult {
  std::size_t events = 0;
  std::size_t in_memory_bytes = 0;  // ApproxMemoryBytes + 8 B/event
  std::size_t stored_bytes = 0;
  std::size_t pages = 0;
  double oracle_seconds = 0.0;     // materialize + iterate
  double streaming_seconds = 0.0;  // StreamingTraceReader
};

Result<ArmResult> RunArm(const Arm& arm, uint64_t seed) {
  PoissonTraceOptions options;
  options.num_resources = arm.resources;
  options.epoch_length = arm.epoch;
  options.lambda = arm.lambda;

  Rng oracle_rng(seed);
  PULLMON_ASSIGN_OR_RETURN(UpdateTrace trace,
                           GeneratePoissonTrace(options, &oracle_rng));
  Rng store_rng(seed);
  PULLMON_ASSIGN_OR_RETURN(TraceStore store,
                           GeneratePoissonTraceStore(options, &store_rng));
  PULLMON_RETURN_NOT_OK(store.VerifyAllPages());

  // Event equality is fatal before anything is timed: same seed must
  // mean the same trace on both backends.
  if (store.TotalEvents() != trace.TotalEvents()) {
    return Status::Internal(StringFormat(
        "event-count divergence: store %zu vs oracle %zu",
        store.TotalEvents(), trace.TotalEvents()));
  }
  std::vector<Chronon> decoded;
  for (ResourceId r = 0; r < arm.resources; ++r) {
    decoded.clear();
    PULLMON_RETURN_NOT_OK(store.ReadResource(r, &decoded));
    if (decoded != trace.EventsFor(r)) {
      return Status::Internal(
          StringFormat("event divergence on resource %d", r));
    }
  }

  ArmResult out;
  out.events = trace.TotalEvents();
  out.in_memory_bytes =
      trace.ApproxMemoryBytes() + trace.TotalEvents() * sizeof(UpdateEvent);
  out.stored_bytes = store.stats().trace_bytes_stored;
  out.pages = store.stats().trace_pages_written;

  // In-memory replay: what the FeedNetwork's oracle path does —
  // materialize the chronological buffer, then walk it.
  unsigned long long guard_oracle = 0;
  auto begin = Clock::now();
  std::vector<UpdateEvent> events = trace.ChronologicalEvents();
  for (const UpdateEvent& event : events) {
    guard_oracle += static_cast<unsigned long long>(event.chronon) +
                    static_cast<unsigned long long>(event.resource);
  }
  out.oracle_seconds = Seconds(begin, Clock::now());

  // Streaming replay straight off the compressed pages.
  unsigned long long guard_stream = 0;
  std::size_t streamed = 0;
  begin = Clock::now();
  StreamingTraceReader reader(&store);
  UpdateEvent event;
  while (reader.Next(&event)) {
    guard_stream += static_cast<unsigned long long>(event.chronon) +
                    static_cast<unsigned long long>(event.resource);
    ++streamed;
  }
  out.streaming_seconds = Seconds(begin, Clock::now());
  PULLMON_RETURN_NOT_OK(reader.status());
  if (streamed != events.size() || guard_stream != guard_oracle) {
    return Status::Internal(StringFormat(
        "chronological divergence: streamed %zu events (checksum %llu) "
        "vs oracle %zu (checksum %llu)",
        streamed, guard_stream, events.size(), guard_oracle));
  }
  return out;
}

/// Full proxy-path differential at a moderate scale: the paged backend
/// must reproduce the oracle's run exactly, clean and under faults.
/// Returns the clean-run GC (a deterministic bench metric).
Result<double> RunProxyDifferential(uint64_t seed) {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 100;
  config.num_profiles = 120;
  config.epoch_length = 300;
  config.lambda = 15.0;
  config.budget = 2;
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};

  double clean_gc = 0.0;
  for (int faulty = 0; faulty < 2; ++faulty) {
    if (faulty) {
      config.faults.timeout_rate = 0.08;
      config.faults.corruption_rate = 0.05;
      config.faults.etag_storm_rate = 0.1;
      config.retry.max_retries = 2;
    }
    config.trace_backend = TraceBackend::kInMemory;
    PULLMON_ASSIGN_OR_RETURN(ProxyRunReport oracle,
                             RunProxyOnce(config, spec, seed));
    config.trace_backend = TraceBackend::kPaged;
    PULLMON_ASSIGN_OR_RETURN(ProxyRunReport paged,
                             RunProxyOnce(config, spec, seed));
    const double oracle_gc = oracle.run.completeness.GainedCompleteness();
    const double paged_gc = paged.run.completeness.GainedCompleteness();
    if (oracle_gc != paged_gc ||
        oracle.run.probes_used != paged.run.probes_used ||
        oracle.items_parsed != paged.items_parsed ||
        oracle.notifications_delivered != paged.notifications_delivered ||
        oracle.probes_failed != paged.probes_failed) {
      return Status::Internal(StringFormat(
          "proxy divergence (%s): GC %.9f/%.9f probes %zu/%zu items "
          "%zu/%zu notifications %zu/%zu failed %zu/%zu",
          faulty ? "faulty" : "clean", oracle_gc, paged_gc,
          oracle.run.probes_used, paged.run.probes_used,
          oracle.items_parsed, paged.items_parsed,
          oracle.notifications_delivered, paged.notifications_delivered,
          oracle.probes_failed, paged.probes_failed));
    }
    if (!faulty) clean_gc = oracle_gc;
  }
  return clean_gc;
}

struct ArmStats {
  RunningStats oracle_seconds;
  RunningStats streaming_seconds;
  std::size_t events = 0;
  std::size_t in_memory_bytes = 0;
  std::size_t stored_bytes = 0;
  std::size_t pages = 0;

  void Fold(const ArmResult& result) {
    oracle_seconds.Add(result.oracle_seconds);
    streaming_seconds.Add(result.streaming_seconds);
    events = result.events;
    in_memory_bytes = result.in_memory_bytes;
    stored_bytes = result.stored_bytes;
    pages = result.pages;
  }
  double BytesRatio() const {
    return stored_bytes == 0
               ? 0.0
               : static_cast<double>(in_memory_bytes) /
                     static_cast<double>(stored_bytes);
  }
  double ThroughputRatio() const {
    return oracle_seconds.mean() <= 0.0 || streaming_seconds.mean() <= 0.0
               ? 0.0
               : oracle_seconds.mean() / streaming_seconds.mean();
  }
};

int RunBench(const TraceStoreBenchOptions& options) {
  bench::PrintHeader(
      "Paged trace store: varint-delta pages vs the in-memory oracle",
      "holding and replaying an epoch's update trace costs >= 8x less "
      "memory paged, at >= 0.5x the in-memory replay throughput, with "
      "zero decision drift");
  std::printf("%d rep(s), base seed %llu\n\n", options.common.reps,
              static_cast<unsigned long long>(options.common.seed));

  ArmStats stats[2];
  for (int rep = 0; rep < options.common.reps; ++rep) {
    uint64_t seed =
        options.common.seed + static_cast<uint64_t>(rep) * 7919;
    for (std::size_t a = 0; a < 2; ++a) {
      auto result = RunArm(kArms[a], seed);
      if (!result.ok()) {
        std::cerr << "FAIL (" << kArms[a].name
                  << "): " << result.status().ToString() << "\n";
        return 1;
      }
      stats[a].Fold(*result);
    }
  }

  auto gc = RunProxyDifferential(options.common.seed);
  if (!gc.ok()) {
    std::cerr << "FAIL: " << gc.status().ToString() << "\n";
    return 1;
  }

  TablePrinter table({"arm", "events", "resident KB", "paged KB",
                      "ratio", "oracle Mev/s", "stream Mev/s", "rel"});
  for (std::size_t a = 0; a < 2; ++a) {
    const ArmStats& s = stats[a];
    double oracle_rate = s.oracle_seconds.mean() > 0.0
                             ? static_cast<double>(s.events) /
                                   s.oracle_seconds.mean() / 1e6
                             : 0.0;
    double stream_rate = s.streaming_seconds.mean() > 0.0
                             ? static_cast<double>(s.events) /
                                   s.streaming_seconds.mean() / 1e6
                             : 0.0;
    table.AddRow({kArms[a].name, StringFormat("%zu", s.events),
                  TablePrinter::FormatDouble(
                      static_cast<double>(s.in_memory_bytes) / 1024.0, 1),
                  TablePrinter::FormatDouble(
                      static_cast<double>(s.stored_bytes) / 1024.0, 1),
                  TablePrinter::FormatDouble(s.BytesRatio(), 2),
                  TablePrinter::FormatDouble(oracle_rate, 1),
                  TablePrinter::FormatDouble(stream_rate, 1),
                  TablePrinter::FormatDouble(s.ThroughputRatio(), 2)});
  }
  table.Print(std::cout);
  std::printf(
      "\nGates: compression >= 8x and replay >= 0.5x on both arms; "
      "cross-backend equality always fatal.\nProxy differential GC "
      "(clean run, both backends): %.4f\n",
      *gc);

  bench::JsonBenchWriter json("bench_trace_store", options.common);
  for (std::size_t a = 0; a < 2; ++a) {
    const ArmStats& s = stats[a];
    json.Add(
        {kArms[a].name,
         {{"resources", std::to_string(kArms[a].resources)},
          {"epoch", std::to_string(kArms[a].epoch)},
          {"lambda", StringFormat("%.0f", kArms[a].lambda)}},
         {{"events_replayed", static_cast<double>(s.events)},
          {"pages_written", static_cast<double>(s.pages)},
          {"bytes_stored", static_cast<double>(s.stored_bytes)},
          {"in_memory_bytes", static_cast<double>(s.in_memory_bytes)},
          {"bytes_ratio", s.BytesRatio()},
          {"oracle_replay_seconds", s.oracle_seconds.mean()},
          {"streaming_replay_seconds", s.streaming_seconds.mean()},
          {"throughput_ratio", s.ThroughputRatio()}}});
  }
  json.Add({"proxy_differential", {}, {{"gc", *gc}}});
  if (!json.WriteIfRequested(options.common)) return 1;

  if (options.gate) {
    bool failed = false;
    for (std::size_t a = 0; a < 2; ++a) {
      if (stats[a].BytesRatio() < 8.0) {
        std::cerr << "FAIL: " << kArms[a].name
                  << " compression below the 8x bar ("
                  << TablePrinter::FormatDouble(stats[a].BytesRatio(), 2)
                  << "x)\n";
        failed = true;
      }
      if (stats[a].ThroughputRatio() < 0.5) {
        std::cerr << "FAIL: " << kArms[a].name
                  << " streaming replay below 0.5x the in-memory path ("
                  << TablePrinter::FormatDouble(
                         stats[a].ThroughputRatio(), 2)
                  << "x)\n";
        failed = true;
      }
    }
    if (failed) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pullmon

int main(int argc, char** argv) {
  pullmon::TraceStoreBenchOptions options =
      pullmon::ParseTraceStoreFlags(argc, argv);
  return pullmon::RunBench(options);
}
