#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/problem.h"
#include "feeds/feed_server.h"
#include "sim/churn.h"
#include "sim/config.h"
#include "sim/experiment.h"
#include "trace/update_trace.h"
#include "util/status.h"

namespace pullmon {
class StableStorage;
}  // namespace pullmon

namespace perfbench {

using pullmon::Chronon;
using pullmon::ProxyRunReport;
using pullmon::Result;
using pullmon::Status;

/// Which public entry point a workload's epoch runs through.
enum class Entry {
  /// RunProxyOnce with oracle knowledge (MonitoringProxy::Run).
  kProxy,
  /// RunDurableOnce on MemoryStorage (churn + snapshots + WAL).
  kDurable,
  /// RunProxyOnce with estimated knowledge (RunAdaptiveOnce).
  kAdaptive,
};

/// One named, production-shaped epoch. Everything but the seed is fixed
/// here; the seed argument of the benchmark generates the inputs.
struct Workload {
  std::string name;
  pullmon::SimulationConfig config;
  pullmon::PolicySpec spec;
  Entry entry = Entry::kProxy;
  /// Snapshot cadence of the durable entry point (kDurable only).
  Chronon checkpoint_every = 0;
};

/// The four workloads.
std::vector<Workload> AllWorkloads();

/// The inputs the entry point builds before its epoch loop, built here
/// by calling the same set-up functions directly. Heap-held because the
/// network points into the trace.
struct Setup {
  pullmon::MonitoringProblem problem;
  pullmon::UpdateTrace trace{0, 0};
  std::optional<pullmon::FeedNetwork> network;
  pullmon::ChurnWorkload churn;
  /// Wall time of BuildProblem + FeedNetwork + GenerateChurnWorkload.
  double seconds = 0.0;
};

Result<std::unique_ptr<Setup>> RunSetup(const Workload& w, uint64_t seed);

/// Feed buffer capacity the entry points derive from the config.
std::size_t BufferCapacity(const pullmon::SimulationConfig& config);

/// Runs the workload's epoch once through its public entry point. The
/// durable entry point writes to `storage`, or to a fresh MemoryStorage
/// when it is null.
Result<ProxyRunReport> RunEntry(const Workload& w, uint64_t seed,
                                pullmon::StableStorage* storage = nullptr);

/// Deterministic report fields compared by the correctness gate, as
/// (name, value) in a fixed order. Timings never enter it.
using Fingerprint = std::vector<std::pair<std::string, uint64_t>>;

Fingerprint FingerprintOf(const ProxyRunReport& report);

/// Empty when equal; else the first differing field. Fields whose name
/// starts with `skip_prefix` (if non-empty) are not compared.
std::string CompareFingerprints(const Fingerprint& a, const Fingerprint& b,
                                const std::string& skip_prefix = "");

double GcOf(const ProxyRunReport& report);

/// Correctness gate of one benchmark run: every checked operation counts
/// as attempted, every mismatch or error as failed.
struct GateLog {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;

  /// Records one checked operation; `mismatch` empty means it passed.
  void Check(const std::string& what, const std::string& mismatch);
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 100].
double Percentile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
