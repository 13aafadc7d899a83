// Churn-maintenance regression bench: incremental candidate-index
// delete (DynamicMonitor's default) against the from-scratch rebuild
// oracle, under a Zipf-activity cancel/edit/unregister stream at
// Figure-5 scale (n=400, K=1000, lambda=50, W=20, C=1, m=500). Both
// arms replay the identical submission and churn op sequence; the bench
// cross-checks schedule equality probe for probe at every timing point,
// so a speedup obtained by diverging from the rebuild semantics cannot
// go unnoticed.
//
// The acceptance gate: at the Figure-5 point the incremental arm must
// complete the churn-heavy epoch at least 5x faster than the rebuild
// arm, and the binary fails (exit 1) if it does not. Results land in
// BENCH_churn.json by default so CI can archive them.

#include <chrono>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/dynamic_monitor.h"
#include "policies/policy_factory.h"
#include "sim/churn.h"
#include "util/stats.h"

namespace pullmon {
namespace {

struct ArmResult {
  bool ok = false;
  double seconds = 0.0;
  Schedule schedule{0};
  std::size_t completed = 0;
  std::size_t cancelled = 0;
  std::size_t edited = 0;
  std::size_t rejected = 0;
  double gc = 0.0;
};

/// One full churn-heavy epoch against a DynamicMonitor in the given
/// maintenance mode. Replays the same ChurnStream as RunChurnOnce but
/// drives the monitor directly (always-successful probes) so the timing
/// isolates index maintenance from the feed path.
ArmResult RunArm(const MonitoringProblem& problem, const ChurnOptions& churn,
                 const std::string& policy, uint64_t seed,
                 MonitorIndexMode mode) {
  ArmResult out;
  PolicyOptions po;
  po.random_seed = seed ^ 0x5bf03635ULL;
  po.num_resources = problem.num_resources;
  auto made = MakePolicy(policy, po);
  if (!made.ok()) {
    std::cerr << made.status().ToString() << "\n";
    return out;
  }
  MonitorOptions options;
  options.maintenance = mode;
  DynamicMonitor monitor(problem.num_resources, problem.epoch.length,
                         problem.budget, made->get(),
                         ExecutionMode::kPreemptive, options);
  for (const Profile& p : problem.profiles) {
    monitor.RegisterProfile(p.name());
  }
  ChurnStream stream(problem, churn, seed);
  ProxyRunReport report;

  const auto start = std::chrono::steady_clock::now();
  for (Chronon now = 0; now < problem.epoch.length; ++now) {
    stream.ApplyChronon(now, &monitor, &report);
    auto step = monitor.Step();
    if (!step.ok()) {
      std::cerr << step.status().ToString() << "\n";
      return out;
    }
  }
  const auto end = std::chrono::steady_clock::now();

  out.seconds = std::chrono::duration<double>(end - start).count();
  out.schedule = monitor.schedule();
  out.completed = monitor.t_intervals_completed();
  out.cancelled = monitor.churn_stats().churn_cancelled;
  out.edited = monitor.churn_stats().churn_edited;
  out.rejected = report.churn_rejected_ops;
  out.gc = monitor.Completeness().GainedCompleteness();
  out.ok = true;
  return out;
}

struct PointResult {
  bool ok = false;
  double incremental_seconds = 0.0;
  double rebuild_seconds = 0.0;
  double speedup = 0.0;
  double churn_ops = 0.0;
  double cancelled = 0.0;
  double edited = 0.0;
  double gc = 0.0;
};

PointResult MeasurePoint(const SimulationConfig& config,
                         const bench::BenchOptions& options) {
  PointResult out;
  RunningStats incremental_seconds, rebuild_seconds, ops, cancelled,
      edited;
  for (int rep = 0; rep < options.reps; ++rep) {
    uint64_t seed = options.seed + static_cast<uint64_t>(rep) * 7919;
    auto problem = BuildProblem(config, seed);
    if (!problem.ok()) {
      std::cerr << "problem generation failed: "
                << problem.status().ToString() << "\n";
      return out;
    }
    ChurnWorkload workload = GenerateChurnWorkload(
        config.churn, static_cast<int>(problem->profiles.size()),
        problem->epoch.length,
        config.churn.seed ^ (seed * 0x9E3779B97F4A7C15ULL));

    ArmResult incremental = RunArm(*problem, config.churn, "mrsf", seed,
                                   MonitorIndexMode::kIncremental);
    if (!incremental.ok) return out;
    ArmResult rebuild = RunArm(*problem, config.churn, "mrsf", seed,
                               MonitorIndexMode::kRebuild);
    if (!rebuild.ok) return out;

    // Semantic cross-check at every timing point: probe for probe.
    if (incremental.schedule.TotalProbes() !=
            rebuild.schedule.TotalProbes() ||
        incremental.completed != rebuild.completed ||
        incremental.cancelled != rebuild.cancelled ||
        incremental.edited != rebuild.edited ||
        incremental.rejected != rebuild.rejected ||
        incremental.gc != rebuild.gc) {
      std::cerr << "MAINTENANCE DIVERGENCE at seed " << seed
                << ": incremental probes="
                << incremental.schedule.TotalProbes()
                << " GC=" << incremental.gc << " vs rebuild probes="
                << rebuild.schedule.TotalProbes()
                << " GC=" << rebuild.gc << "\n";
      return out;
    }
    for (Chronon t = 0; t < problem->epoch.length; ++t) {
      if (incremental.schedule.ProbesAt(t) !=
          rebuild.schedule.ProbesAt(t)) {
        std::cerr << "MAINTENANCE DIVERGENCE at seed " << seed
                  << " chronon " << t << "\n";
        return out;
      }
    }

    incremental_seconds.Add(incremental.seconds);
    rebuild_seconds.Add(rebuild.seconds);
    ops.Add(static_cast<double>(workload.events.size()));
    cancelled.Add(static_cast<double>(incremental.cancelled));
    edited.Add(static_cast<double>(incremental.edited));
    out.gc = incremental.gc;
  }
  out.incremental_seconds = incremental_seconds.mean();
  out.rebuild_seconds = rebuild_seconds.mean();
  out.speedup = out.incremental_seconds > 0.0
                    ? out.rebuild_seconds / out.incremental_seconds
                    : 0.0;
  out.churn_ops = ops.mean();
  out.cancelled = cancelled.mean();
  out.edited = edited.mean();
  out.ok = true;
  return out;
}

SimulationConfig Fig5ChurnConfig() {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 400;
  config.epoch_length = 1000;
  config.lambda = 50.0;
  config.max_rank = 3;
  config.restriction = LengthRestriction::kWindow;
  config.window = 20;
  config.budget = 1;
  config.num_profiles = 500;
  config.churn.enabled = true;
  // The gate point is churn-heavy on purpose: at low rates both arms
  // are dominated by the shared per-chronon probe loop and the
  // maintenance difference washes out (the sweep below shows it).
  config.churn.ops_per_chronon = 8.0;
  return config;
}

int RunBench(const bench::BenchOptions& options) {
  bench::PrintHeader(
      "Profile churn: incremental index delete vs from-scratch rebuild",
      "cancel/edit/unregister without rebuild is decision-identical and "
      ">= 5x faster at Figure-5 scale");

  struct Point {
    std::string name;
    std::string axis;
    std::string value;
    SimulationConfig config;
  };
  std::vector<Point> points;
  points.push_back({"fig5_gate", "churn_rate", "8", Fig5ChurnConfig()});
  for (double rate : {0.5, 2.0}) {
    SimulationConfig config = Fig5ChurnConfig();
    config.churn.ops_per_chronon = rate;
    points.push_back({"churn_rate_sweep", "churn_rate",
                      TablePrinter::FormatDouble(rate, 1), config});
  }
  {
    SimulationConfig config = Fig5ChurnConfig();
    config.num_profiles = 1000;
    points.push_back({"profiles_sweep", "profiles", "1000", config});
  }

  bench::JsonBenchWriter json("bench_churn", options);
  TablePrinter table({"point", "axis", "value", "incremental ms",
                      "rebuild ms", "speedup", "churn ops", "cancelled",
                      "GC"});
  double gate_speedup = 0.0;
  for (const Point& point : points) {
    PointResult result = MeasurePoint(point.config, options);
    if (!result.ok) return 1;
    table.AddRow(
        {point.name, point.axis, point.value,
         TablePrinter::FormatDouble(result.incremental_seconds * 1e3, 2),
         TablePrinter::FormatDouble(result.rebuild_seconds * 1e3, 2),
         TablePrinter::FormatDouble(result.speedup, 2),
         TablePrinter::FormatDouble(result.churn_ops, 0),
         TablePrinter::FormatDouble(result.cancelled, 0),
         TablePrinter::FormatDouble(result.gc, 4)});
    json.Add({point.name,
              {{"axis", point.axis}, {"value", point.value}},
              {{"incremental_seconds", result.incremental_seconds},
               {"rebuild_seconds", result.rebuild_seconds},
               {"speedup", result.speedup},
               {"churn_ops", result.churn_ops},
               {"cancelled", result.cancelled},
               {"edited", result.edited},
               {"gc", result.gc}}});
    if (point.name == "fig5_gate") gate_speedup = result.speedup;
  }
  table.Print(std::cout);

  std::cout << "\nAcceptance gate (Figure-5 point, n=400 K=1000 "
               "lambda=50 W=20 C=1 m=500, 8 churn ops/chronon):\n  "
               "incremental vs rebuild speedup = "
            << TablePrinter::FormatDouble(gate_speedup, 2)
            << "x (required: >= 5x)\n";
  if (!json.WriteIfRequested(options)) return 1;
  if (gate_speedup < 5.0) {
    std::cerr << "FAIL: incremental churn maintenance below the 5x bar "
                 "at the Figure-5 point\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pullmon

int main(int argc, char** argv) {
  pullmon::bench::BenchOptions options = pullmon::bench::ParseBenchFlags(
      argc, argv, "bench_churn",
      "Incremental vs rebuild churn maintenance regression bench",
      /*default_seed=*/9090, /*default_reps=*/3,
      /*default_json=*/"BENCH_churn.json");
  return pullmon::RunBench(options);
}
