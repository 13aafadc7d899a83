// Parallel-executor throughput bench: the sharded multi-threaded
// engine (ExecutorBackend::kParallel) against the serial indexed
// executor on the Figure-5 proxy substrate (n=400, lambda=50, W=20,
// m=500), with the probe budget raised so every chronon carries a
// large probe batch. The worker pool parallelizes only the per-shard
// activation and scoring phases; every probe (fetch, parse, cache)
// runs serially in the control pass, so the end-to-end speedup is
// bounded by the scheduling share of the run. Two arms: clean, and the
// full fault surface (timeouts, corruption, ETag storms, retries,
// breaker), each measured at 1/2/4/8 worker threads.
//
// Every timing point first proves itself: the parallel report must be
// field-identical to the serial one (all scheduling, transport, fault,
// health and cache counters; the shard_* block is parallel-only and
// excluded). Any divergence is fatal — a speedup obtained by diverging
// from the semantics cannot go unnoticed.
//
// The acceptance gate scales with the hardware the bench actually
// runs on, because wall-clock speedup cannot exceed the cores present:
//   >= 8 hardware threads: speedup(8 workers vs serial) >= 3.0x
//   >= 4:                  >= 2.0x
//   >= 2:                  >= 1.2x
//   1 (uniprocessor):      >= 0.6x — an overhead bound: the sharded
//       pipeline plus thread handoff must stay within ~1.7x of serial
//       even with nothing to win.
// The emitted JSON records hardware_threads and the applied bar, so
// archived results are interpretable.

#include <cstddef>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "sim/config.h"
#include "sim/experiment.h"
#include "sim/proxy.h"
#include "util/stats.h"

namespace pullmon {
namespace {

/// The Figure-5 scalability substrate, adapted for the physical probe
/// path: the budget carries 8 probes per chronon and large feed
/// buffers make every fetched body a real parse workload.
SimulationConfig SubstrateConfig() {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 400;
  config.epoch_length = 400;
  config.lambda = 50.0;
  config.max_rank = 3;
  config.restriction = LengthRestriction::kWindow;
  config.window = 20;
  config.num_profiles = 500;
  config.budget = 8;
  config.feed_buffer_capacity = 48;
  return config;
}

SimulationConfig FaultyConfig() {
  SimulationConfig config = SubstrateConfig();
  config.faults.timeout_rate = 0.05;
  config.faults.truncation_rate = 0.03;
  config.faults.corruption_rate = 0.03;
  config.faults.etag_storm_rate = 0.05;
  config.retry.max_retries = 2;
  config.breaker.enabled = true;
  config.breaker.failure_threshold = 4;
  return config;
}

struct ArmResult {
  bool ok = false;
  double serial_seconds = 0.0;
  /// Indexed by position in kThreadCounts.
  std::vector<double> parallel_seconds;
  /// Workload fingerprint summed over reps; derives only from the
  /// seed, so bench_diff can pin it against the committed baseline.
  double probes_total = 0.0;
  double gc_total = 0.0;
};

constexpr int kThreadCounts[] = {1, 2, 4, 8};

ArmResult MeasureArm(const SimulationConfig& base,
                     const bench::BenchOptions& options,
                     const std::string& label) {
  ArmResult out;
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  RunningStats serial_seconds;
  std::vector<RunningStats> parallel_seconds(std::size(kThreadCounts));
  for (int rep = 0; rep < options.reps; ++rep) {
    uint64_t seed = options.seed + static_cast<uint64_t>(rep) * 7919;
    SimulationConfig config = base;
    config.executor_backend = ExecutorBackend::kIndexed;
    auto serial = RunProxyOnce(config, spec, seed);
    if (!serial.ok()) {
      std::cerr << serial.status().ToString() << "\n";
      return out;
    }
    serial_seconds.Add(serial->run.elapsed_seconds);
    out.probes_total += static_cast<double>(serial->run.probes_used);
    out.gc_total += serial->run.completeness.GainedCompleteness();
    config.executor_backend = ExecutorBackend::kParallel;
    for (std::size_t i = 0; i < std::size(kThreadCounts); ++i) {
      config.threads = kThreadCounts[i];
      auto parallel = RunProxyOnce(config, spec, seed);
      if (!parallel.ok()) {
        std::cerr << parallel.status().ToString() << "\n";
        return out;
      }
      // Only the sharded engine fills the shard_* block.
      const std::string diff = ReportDifference(*serial, *parallel,
                                                {.shard_stats = false});
      if (!diff.empty()) {
        std::cerr << "REPORT DIVERGENCE [" << label << " seed " << seed
                  << " threads " << kThreadCounts[i] << "] " << diff << "\n";
        return out;  // always fatal
      }
      parallel_seconds[i].Add(parallel->run.elapsed_seconds);
    }
  }
  out.serial_seconds = serial_seconds.mean();
  out.parallel_seconds.reserve(std::size(kThreadCounts));
  for (const RunningStats& stats : parallel_seconds) {
    out.parallel_seconds.push_back(stats.mean());
  }
  out.ok = true;
  return out;
}

/// The wall-clock bar speedup(8 workers) must clear, given the cores
/// actually present.
double RequiredSpeedup(unsigned hardware_threads) {
  if (hardware_threads >= 8) return 3.0;
  if (hardware_threads >= 4) return 2.0;
  if (hardware_threads >= 2) return 1.2;
  return 0.6;
}

int RunBench(const bench::BenchOptions& options) {
  bench::PrintHeader(
      "Parallel sharded pipeline vs serial indexed executor (proxy "
      "path, Figure-5 substrate)",
      "reports are field-identical at every thread count; the 8-worker "
      "speedup gate scales with the cores present");

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const double required = RequiredSpeedup(hardware_threads);

  struct Arm {
    std::string name;
    SimulationConfig config;
  };
  std::vector<Arm> arms;
  arms.push_back({"clean", SubstrateConfig()});
  arms.push_back({"faulty", FaultyConfig()});

  bench::JsonBenchWriter json("bench_parallel", options);
  TablePrinter table({"arm", "threads", "serial ms", "parallel ms",
                      "speedup", "chronons/s"});
  double gate_speedup = 0.0;
  for (const Arm& arm : arms) {
    ArmResult result = MeasureArm(arm.config, options, arm.name);
    if (!result.ok) return 1;
    double chronons = static_cast<double>(arm.config.epoch_length);
    for (std::size_t i = 0; i < std::size(kThreadCounts); ++i) {
      double seconds = result.parallel_seconds[i];
      double speedup =
          seconds > 0.0 ? result.serial_seconds / seconds : 0.0;
      table.AddRow(
          {arm.name, std::to_string(kThreadCounts[i]),
           TablePrinter::FormatDouble(result.serial_seconds * 1e3, 2),
           TablePrinter::FormatDouble(seconds * 1e3, 2),
           TablePrinter::FormatDouble(speedup, 2),
           TablePrinter::FormatDouble(
               seconds > 0.0 ? chronons / seconds : 0.0, 0)});
      json.Add({arm.name + "_t" + std::to_string(kThreadCounts[i]),
                {{"arm", arm.name},
                 {"threads", std::to_string(kThreadCounts[i])}},
                {{"serial_seconds", result.serial_seconds},
                 {"parallel_seconds", seconds},
                 {"speedup_vs_serial", speedup},
                 {"chronons_per_sec",
                  seconds > 0.0 ? chronons / seconds : 0.0},
                 {"probes", result.probes_total},
                 {"gc", result.gc_total}}});
      if (arm.name == "clean" && kThreadCounts[i] == 8) {
        gate_speedup = speedup;
      }
    }
  }
  table.Print(std::cout);

  json.Add({"gate",
            {{"arm", "clean"}, {"threads", "8"}},
            {{"hardware_threads", static_cast<double>(hardware_threads)},
             {"required_speedup", required},
             {"achieved_speedup", gate_speedup}}});

  std::cout << "\nAcceptance gate (clean arm, 8 workers vs serial "
               "indexed):\n  speedup = "
            << TablePrinter::FormatDouble(gate_speedup, 2)
            << "x; required >= "
            << TablePrinter::FormatDouble(required, 2) << "x on "
            << hardware_threads << " hardware thread(s)\n";
  if (!json.WriteIfRequested(options)) return 1;
  if (gate_speedup < required) {
    std::cerr << "FAIL: 8-worker speedup below the hardware-scaled "
                 "bar\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pullmon

int main(int argc, char** argv) {
  pullmon::bench::BenchOptions options = pullmon::bench::ParseBenchFlags(
      argc, argv, "bench_parallel",
      "Parallel sharded pipeline vs serial indexed executor",
      /*default_seed=*/6161, /*default_reps=*/3,
      /*default_json=*/"BENCH_parallel.json");
  return pullmon::RunBench(options);
}
