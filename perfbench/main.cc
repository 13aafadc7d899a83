// End-to-end benchmark of the composed pullmon proxy.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 repeats the workload's epoch through its public entry point
// for --seconds and reports the end-to-end metrics; --trace 1 repeats
// traced passes (see layers.h) and reports the per-layer split. Either
// way the last stdout line is one JSON object with the keys correct,
// attempted, failed and metrics. See README.md for the workloads.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/completeness.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args->trace = value == "1";
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && argc % 2 == 1 && args->seconds > 0.0;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Shortest round-trip rendering; JSON has no NaN or infinity.
std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

void PrintResult(const GateLog& gate,
                 const std::vector<std::pair<MetricSpec, double>>& metrics) {
  for (const std::string& error : gate.errors) {
    std::cout << "gate FAILED: " << error << "\n";
  }
  std::ostringstream out;
  out << "{\"correct\": " << (gate.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << gate.attempted
      << ", \"failed\": " << gate.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [spec, value] = metrics[i];
    out << (i == 0 ? "" : ", ") << "\"" << spec.name << "\": {\"value\": "
        << Number(value) << ", \"unit\": \"" << spec.unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// The workload's traffic shape; `layers` (traced runs only) adds what
/// only the pass-through layers see.
void PrintTraffic(const Workload& w, uint64_t seed, const Setup& setup,
                  const ProxyRunReport& r,
                  const std::map<std::string, double>* layers) {
  auto layer = [&](const char* name) {
    return layers == nullptr ? std::string("-")
                             : Number(layers->at(name));
  };
  const double chronons = static_cast<double>(setup.problem.epoch.length);
  std::cout << "traffic " << w.name << " seed=" << seed << "\n"
            << "  t-intervals=" << setup.problem.TotalTIntervalCount()
            << " eis=" << setup.problem.TotalEiCount()
            << " chronons=" << setup.problem.epoch.length
            << " budget=" << w.config.budget << "\n"
            << "  candidates/chronon mean="
            << Number(static_cast<double>(r.run.candidates_scored) /
                      chronons)
            << " max=" << r.run.max_concurrent_candidates << "\n"
            << "  probes=" << r.run.probes_used
            << " notifications=" << r.notifications_delivered
            << " items_delivered=" << layer("sim.items_delivered")
            << " items_parsed=" << r.items_parsed
            << " feed_bytes=" << r.feed_bytes
            << " not_modified=" << r.not_modified << "\n"
            << "  churn ops=" << setup.churn.events.size()
            << " cancelled=" << r.churn_cancelled
            << " edited=" << r.churn_edited
            << " unregistered=" << r.churn_unregistered_profiles
            << " rejected=" << r.churn_rejected_ops
            << " orphaned_probes=" << r.orphaned_probes << "\n"
            << "  faults failed=" << r.probes_failed
            << " timeouts=" << r.timeouts
            << " server_errors=" << r.server_errors
            << " corrupt=" << r.corrupt_bodies
            << " outage=" << r.outage_probes
            << " etag_invalidations=" << r.etag_invalidations
            << " retries=" << r.retries_issued
            << " circuits_opened=" << r.circuits_opened << "\n"
            << "  parse_cache hits=" << r.parse_cache_hits
            << " misses=" << r.parse_cache_misses << "\n"
            << "  wal_bytes=" << layer("recovery.wal_bytes")
            << " snapshot_bytes=" << layer("recovery.snapshot_bytes")
            << " snapshots=" << r.recovery_snapshots_written
            << " wal_records=" << r.recovery_wal_records_logged << "\n"
            << "  estimation observed=" << r.estimation_probes_observed
            << " predicted_eis=" << r.estimation_predicted_eis
            << " explore=" << r.estimation_explore_probes << "\n";
}

/// Cross-checks of one entry-point report against the instance it ran:
/// the budget holds every chronon and, where the entry point scores the
/// original profiles, GC recomputed from the schedule matches.
std::string CheckAgainstInstance(const Workload& w, const Setup& setup,
                                 const ProxyRunReport& r) {
  const pullmon::Schedule& schedule = r.run.schedule;
  if (r.run.probes_used == 0) return "no probes";
  if (!schedule.SatisfiesBudget(setup.problem.budget)) return "over budget";
  if (r.run.probes_used >
      static_cast<std::size_t>(setup.problem.budget.Total())) {
    return "probe attempts over budget";
  }
  if (w.entry == Entry::kDurable) return "";  // churn edits the profiles
  const pullmon::CompletenessReport recomputed =
      pullmon::EvaluateCompleteness(setup.problem.profiles, schedule);
  if (recomputed.captured_t_intervals !=
          r.run.completeness.captured_t_intervals ||
      recomputed.total_t_intervals != r.run.completeness.total_t_intervals) {
    return "GC recomputed from the schedule differs";
  }
  return "";
}

/// Set-up samples per timed entry-point run (set-up is short and noisy).
constexpr int kSetupsPerRun = 3;

int RunEndToEnd(const Workload& w, const Args& args) {
  GateLog gate;
  std::vector<double> setup_s;
  std::vector<double> entry_s;
  const auto start = Clock::now();
  // The first entry-point run only warms the heap and caches: it is
  // gated but not timed.
  auto warm = RunEntry(w, args.seed);
  if (!warm.ok()) {
    std::cerr << "run failed: " << warm.status().ToString() << "\n";
    return 1;
  }
  const Fingerprint first = FingerprintOf(*warm);
  ProxyRunReport report = std::move(*warm);
  // Set-up and entry point alternate, so set-up is sampled as often as
  // the run; at least three timed runs.
  do {
    for (int i = 0; i < kSetupsPerRun; ++i) {
      auto setup = RunSetup(w, args.seed);
      if (!setup.ok()) {
        std::cerr << "set-up failed: " << setup.status().ToString() << "\n";
        return 1;
      }
      setup_s.push_back((*setup)->seconds);
    }
    const auto run_start = Clock::now();
    auto result = RunEntry(w, args.seed);
    entry_s.push_back(SecondsSince(run_start));
    if (!result.ok()) {
      std::cerr << "run failed: " << result.status().ToString() << "\n";
      return 1;
    }
    report = std::move(*result);
    gate.Check("entry-point run",
               CompareFingerprints(first, FingerprintOf(report)));
  } while (SecondsSince(start) < args.seconds || entry_s.size() < 3);
  const double peak_rss = PeakRssMiB();

  auto setup = RunSetup(w, args.seed);
  if (!setup.ok()) return 1;
  setup_s.push_back((*setup)->seconds);
  gate.Check("report vs instance", CheckAgainstInstance(w, **setup, report));
  if (w.entry == Entry::kDurable) {
    auto churn = pullmon::RunChurnOnce(w.config, w.spec, args.seed);
    gate.Check("durable vs RunChurnOnce",
               churn.ok() ? CompareFingerprints(first, FingerprintOf(*churn),
                                                "recovery_")
                          : churn.status().ToString());
  } else if (w.entry == Entry::kAdaptive) {
    Workload serial = w;
    serial.config.executor_backend = pullmon::ExecutorBackend::kIndexed;
    serial.config.threads = 1;
    auto one = RunEntry(serial, args.seed);
    gate.Check("adaptive vs serial indexed backend",
               one.ok() ? CompareFingerprints(first, FingerprintOf(*one),
                                              "shard_")
                        : one.status().ToString());
  }
  PrintTraffic(w, args.seed, **setup, report, nullptr);

  const double setup_median = Median(setup_s);
  const double chronons = static_cast<double>(w.config.epoch_length);
  std::vector<double> run_s, probes_per_s, chronons_per_s;
  for (double entry : entry_s) {
    const double run = entry - setup_median;
    run_s.push_back(run);
    probes_per_s.push_back(static_cast<double>(report.run.probes_used) / run);
    chronons_per_s.push_back(chronons / run);
  }
  std::cout << "runs=" << entry_s.size() << " setups=" << setup_s.size()
            << " run_s median=" << Number(Median(run_s))
            << " report elapsed_seconds=" << report.run.elapsed_seconds
            << "\n  run_s:";
  for (double run : run_s) std::cout << " " << Number(run);
  std::cout << "\n  setup_s:";
  for (double s : setup_s) std::cout << " " << Number(s);
  std::cout << "\n";
  const double probes = static_cast<double>(report.run.probes_used);
  PrintResult(gate,
              {{{"probes_per_s", "probes/s"}, Median(probes_per_s)},
               {{"chronons_per_s", "chronons/s"}, Median(chronons_per_s)},
               {{"setup_s", "s"}, setup_median},
               {{"peak_rss_mb", "MiB"}, peak_rss},
               {{"gc", "fraction"}, GcOf(report)},
               {{"probe_success_ratio", "fraction"},
                1.0 - static_cast<double>(report.probes_failed) / probes}});
  return 0;
}

int RunTraced(const Workload& w, const Args& args, int threads, int nproc) {
  GateLog gate;
  std::vector<TracedPass> passes;
  // Warm-up, as in the untraced mode, so the first pass's untraced run
  // does not pay for the cold heap.
  auto warm = RunEntry(w, args.seed);
  if (!warm.ok()) {
    std::cerr << "run failed: " << warm.status().ToString() << "\n";
    return 1;
  }
  const Fingerprint first = FingerprintOf(*warm);
  const auto start = Clock::now();
  do {
    auto pass = RunTracedPass(w, args.seed, threads, nproc, &gate);
    if (!pass.ok()) {
      std::cerr << "traced pass failed: " << pass.status().ToString() << "\n";
      return 1;
    }
    gate.Check("traced pass",
               CompareFingerprints(first, FingerprintOf(pass->report)));
    gate.Check("report vs instance",
               CheckAgainstInstance(w, *pass->setup, pass->report));
    // Only the first pass's set-up is needed for the traffic report.
    if (!passes.empty()) pass->setup.reset();
    passes.push_back(std::move(*pass));
  } while (SecondsSince(start) < args.seconds);

  const TracedPass& head = passes.front();
  std::vector<std::pair<MetricSpec, double>> metrics;
  for (const MetricSpec& m : PerLayerMetrics()) {
    std::vector<double> values;
    for (const TracedPass& p : passes) values.push_back(p.values.at(m.name));
    metrics.push_back({m, Median(values)});
  }
  std::map<std::string, double> medians;
  for (const auto& [spec, value] : metrics) medians[spec.name] = value;
  PrintTraffic(w, args.seed, *head.setup, head.report, &medians);
  std::cout << "traced passes=" << passes.size() << " threads=" << threads
            << " nproc=" << nproc << "\n";
  PrintResult(gate, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n";
    return 2;
  }
  const int nproc = Nproc();
  const int threads = std::min(4, nproc);
  for (const Workload& w : AllWorkloads()) {
    if (w.name != args.workload) continue;
    return args.trace ? RunTraced(w, args, threads, nproc)
                      : RunEndToEnd(w, args);
  }
  std::cerr << "unknown workload '" << args.workload << "'\n";
  return 2;
}
