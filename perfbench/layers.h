#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

/// A reported metric: name and unit.
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Every per-layer metric of the traced run, in output order. Each is
/// printed for every workload; a layer a workload does not exercise
/// reads 0.
const std::vector<MetricSpec>& PerLayerMetrics();

/// One traced pass over a workload: the per-layer values, keyed by
/// metric name, and the report of the pass's traced entry-point run.
struct TracedPass {
  std::map<std::string, double> values;
  ProxyRunReport report;
  /// Set-up of the pass (problem, trace) for the traffic report.
  std::unique_ptr<Setup> setup;
};

/// Runs the workload once untraced and once traced, then replays the
/// traced run through the single layers from outside src/: the logical
/// executor, a timed pass-through Policy, the feed servers and parser,
/// and (estimated knowledge only) a fresh EstimationSession. Every
/// cross-check lands in `gate`. `threads` is the thread count of the
/// sharded backend; `nproc` is recorded beside the speed-up.
Result<TracedPass> RunTracedPass(const Workload& w, uint64_t seed,
                                 int threads, int nproc, GateLog* gate);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
