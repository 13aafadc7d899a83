// Durability bench: what checkpoint + WAL cost the monitoring service,
// and how fast a crashed epoch comes back. One Figure-5-scale churn arm
// (n=400, K=1000, lambda=50, W=20, C=1, m=500, 8 churn ops/chronon)
// runs four ways:
//
//   volatile — RunChurnOnce, no durability (the baseline);
//   durable  — RunDurableOnce with the default discipline: WAL
//       group-flushed at every chronon boundary, snapshots only when a
//       generation's WAL outgrows snapshot_wal_bytes (MemoryStorage, so
//       the gate measures codec + bookkeeping cost, not disk);
//   periodic — the same run snapshotting every 100 chronons, the dense
//       cadence an operator buys when recovery time matters more than
//       throughput (reported, not gated — each snapshot serializes and
//       checksums the full ~0.5 MB proxy image);
//   crashed  — the periodic run killed mid-epoch at K/2, then recovered
//       and finished (the recovery-time metric).
//
// Gate (disable with --gate=false, e.g. under asan): the durable run's
// GC throughput (gained completeness per second) must stay within 5%
// of the volatile run's, on the minimum time of each variant over the
// --reps repetitions (default 11). The volatile and durable runs swap
// which goes first every other repetition, so neither one always gets
// the colder or the warmer host.
//
// Correctness is never gated off: every durable and recovered report
// must equal the volatile run's on every deterministic field compared
// here; any divergence fails the binary regardless of --gate.
//
// Results land in BENCH_recovery.json by default; CI diffs the JSON
// against the committed baseline at the repo root (snapshot bytes, WAL
// record counts and the reports-equal flag are deterministic in
// (seed, reps)).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "recovery/checkpoint.h"
#include "recovery/durable_runner.h"
#include "recovery/stable_storage.h"
#include "sim/config.h"
#include "sim/experiment.h"
#include "sim/proxy.h"
#include "util/flags.h"
#include "util/table_printer.h"

namespace pullmon {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

struct RecoveryBenchOptions {
  bench::BenchOptions common;
  bool gate = true;
};

RecoveryBenchOptions ParseRecoveryFlags(int argc, char** argv) {
  FlagParser flags("bench_recovery",
                   "Durability layer: checkpoint/WAL overhead on the "
                   "Figure-5 churn arm and crash-recovery latency");
  flags.AddInt64("seed", 3141, "base random seed of the repetitions");
  flags.AddInt64("reps", 11, "repetitions (min time per variant gates)");
  flags.AddString("json", "BENCH_recovery.json",
                  "write machine-readable results (BENCH_pullmon.json "
                  "schema; empty = disabled)");
  flags.AddBool("gate", true,
                "fail (exit 1) when the durable run's GC throughput "
                "drops more than 5% below the volatile run's");
  Status status = flags.Parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.Usage();
    std::exit(0);
  }
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n" << flags.Usage();
    std::exit(2);
  }
  RecoveryBenchOptions options;
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

SimulationConfig Figure5ChurnConfig() {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 400;
  config.epoch_length = 1000;
  config.lambda = 50.0;
  config.window = 20;
  config.budget = 1;
  config.num_profiles = 500;
  config.churn.enabled = true;
  config.churn.ops_per_chronon = 8.0;
  return config;
}

constexpr Chronon kPeriodicEvery = 100;

/// A durable or recovered run must reproduce the volatile report
/// exactly (ReportDifference skips only the recovery_* counters).
Status CheckReportsEqual(const ProxyRunReport& got,
                         const ProxyRunReport& want, const char* label) {
  const std::string diff = ReportDifference(got, want);
  if (diff.empty()) return Status::OK();
  return Status::Internal(StringFormat(
      "%s diverged on %s (run is not replay-exact)", label, diff.c_str()));
}

/// What one durable variant measured in one repetition.
struct VariantResult {
  double seconds = 0.0;
  std::size_t snapshots_written = 0;
  std::size_t wal_records_logged = 0;
  std::size_t snapshot_bytes = 0;  // newest snapshot file
  ProxyRunReport report;
};

Result<VariantResult> RunDurableVariant(const SimulationConfig& config,
                                        const PolicySpec& spec,
                                        uint64_t seed,
                                        Chronon checkpoint_every) {
  VariantResult out;
  MemoryStorage storage;
  DurableOptions durable;
  durable.storage = &storage;
  durable.checkpoint_every = checkpoint_every;
  auto begin = Clock::now();
  PULLMON_ASSIGN_OR_RETURN(ProxyRunReport report,
                           RunDurableOnce(config, spec, seed, durable));
  out.seconds = Seconds(begin, Clock::now());
  out.snapshots_written = report.recovery_snapshots_written;
  out.wal_records_logged = report.recovery_wal_records_logged;
  PULLMON_ASSIGN_OR_RETURN(std::vector<std::string> files,
                           storage.ListFiles());
  for (const std::string& name : files) {
    if (ParseSnapshotFileName(name) >= 0) {
      PULLMON_ASSIGN_OR_RETURN(std::string bytes, storage.ReadFile(name));
      out.snapshot_bytes = bytes.size();
    }
  }
  out.report = std::move(report);
  return out;
}

/// What one repetition measured.
struct RepResult {
  double volatile_seconds = 0.0;
  double recovery_seconds = 0.0;  // the post-crash resume run
  double gc = 0.0;
  std::size_t probes = 0;
  VariantResult durable;   // default WAL-size-triggered snapshots
  VariantResult periodic;  // snapshots every kPeriodicEvery chronons
  std::size_t wal_records_replayed = 0;
};

Result<RepResult> RunRep(const SimulationConfig& config,
                         const PolicySpec& spec, uint64_t seed,
                         bool durable_first) {
  RepResult out;

  if (durable_first) {
    PULLMON_ASSIGN_OR_RETURN(
        out.durable,
        RunDurableVariant(config, spec, seed, /*checkpoint_every=*/0));
  }
  auto begin = Clock::now();
  PULLMON_ASSIGN_OR_RETURN(ProxyRunReport baseline,
                           RunChurnOnce(config, spec, seed));
  out.volatile_seconds = Seconds(begin, Clock::now());
  out.gc = baseline.run.completeness.GainedCompleteness();
  out.probes = baseline.run.probes_used;
  if (!durable_first) {
    PULLMON_ASSIGN_OR_RETURN(
        out.durable,
        RunDurableVariant(config, spec, seed, /*checkpoint_every=*/0));
  }
  PULLMON_RETURN_NOT_OK(
      CheckReportsEqual(out.durable.report, baseline, "durable run"));
  PULLMON_ASSIGN_OR_RETURN(
      out.periodic, RunDurableVariant(config, spec, seed, kPeriodicEvery));
  PULLMON_RETURN_NOT_OK(
      CheckReportsEqual(out.periodic.report, baseline, "periodic run"));

  // Crash the periodic run at mid-epoch (its replay window is bounded
  // by the snapshot period), then time the resume-and-finish run.
  MemoryStorage crashed;
  DurableOptions crashing;
  crashing.storage = &crashed;
  crashing.checkpoint_every = kPeriodicEvery;
  crashing.crash.chronon = config.epoch_length / 2;
  crashing.crash.write_offset = 1000;
  auto killed = RunDurableOnce(config, spec, seed, crashing);
  if (killed.ok()) {
    return Status::Internal("planned mid-epoch crash did not fire");
  }
  DurableOptions recovering;
  recovering.storage = &crashed;
  recovering.checkpoint_every = kPeriodicEvery;
  recovering.recover = true;
  begin = Clock::now();
  PULLMON_ASSIGN_OR_RETURN(
      ProxyRunReport recovered,
      RunDurableOnce(config, spec, seed, recovering));
  out.recovery_seconds = Seconds(begin, Clock::now());
  PULLMON_RETURN_NOT_OK(
      CheckReportsEqual(recovered, baseline, "recovered run"));
  out.wal_records_replayed = recovered.recovery_wal_records_replayed;
  return out;
}

int RunBench(const RecoveryBenchOptions& options) {
  bench::PrintHeader(
      "Durable proxy state: checkpoint + WAL vs the volatile runner",
      "the per-boundary WAL with WAL-size-triggered snapshots must cost "
      "<= 5% GC throughput at the Figure-5 churn arm, and a mid-epoch "
      "crash must recover to the identical report");
  std::printf("%d rep(s), base seed %llu\n\n", options.common.reps,
              static_cast<unsigned long long>(options.common.seed));

  SimulationConfig config = Figure5ChurnConfig();
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};

  double volatile_min = 0.0, durable_min = 0.0, periodic_min = 0.0;
  RunningStats recovery_seconds;
  RepResult last;
  for (int rep = 0; rep < options.common.reps; ++rep) {
    uint64_t seed =
        options.common.seed + static_cast<uint64_t>(rep) * 7919;
    auto result = RunRep(config, spec, seed, /*durable_first=*/rep % 2 == 1);
    if (!result.ok()) {
      std::cerr << "FAIL: " << result.status().ToString() << "\n";
      return 1;
    }
    volatile_min = rep == 0 ? result->volatile_seconds
                            : std::min(volatile_min,
                                       result->volatile_seconds);
    durable_min = rep == 0
                      ? result->durable.seconds
                      : std::min(durable_min, result->durable.seconds);
    periodic_min = rep == 0
                       ? result->periodic.seconds
                       : std::min(periodic_min, result->periodic.seconds);
    recovery_seconds.Add(result->recovery_seconds);
    last = *result;
  }

  // GC is identical across variants (enforced above), so the
  // GC-throughput ratio reduces to the min-time ratio.
  const double overhead =
      volatile_min > 0.0 ? durable_min / volatile_min - 1.0 : 0.0;
  const double periodic_overhead =
      volatile_min > 0.0 ? periodic_min / volatile_min - 1.0 : 0.0;

  TablePrinter table({"variant", "seconds (min)", "GC/s", "snapshots",
                      "wal records"});
  table.AddRow({"volatile", TablePrinter::FormatDouble(volatile_min, 3),
                TablePrinter::FormatDouble(
                    volatile_min > 0.0 ? last.gc / volatile_min : 0.0, 1),
                "-", "-"});
  table.AddRow({"durable (WAL-size)",
                TablePrinter::FormatDouble(durable_min, 3),
                TablePrinter::FormatDouble(
                    durable_min > 0.0 ? last.gc / durable_min : 0.0, 1),
                StringFormat("%zu", last.durable.snapshots_written),
                StringFormat("%zu", last.durable.wal_records_logged)});
  table.AddRow({StringFormat("periodic (every %lld)",
                             static_cast<long long>(kPeriodicEvery)),
                TablePrinter::FormatDouble(periodic_min, 3),
                TablePrinter::FormatDouble(
                    periodic_min > 0.0 ? last.gc / periodic_min : 0.0, 1),
                StringFormat("%zu", last.periodic.snapshots_written),
                StringFormat("%zu", last.periodic.wal_records_logged)});
  table.Print(std::cout);
  std::printf(
      "\nCheckpoint overhead: %+.2f%% (gate: <= 5%%); periodic cadence "
      "%+.2f%% (reported only)\nRecovery (crash at K/2): %.3f s mean, "
      "%zu WAL records replayed, newest snapshot %zu B\n",
      overhead * 100.0, periodic_overhead * 100.0,
      recovery_seconds.mean(), last.wal_records_replayed,
      last.periodic.snapshot_bytes);

  bench::JsonBenchWriter json("bench_recovery", options.common);
  json.Add({"fig5_churn_durability",
            {{"resources", std::to_string(config.num_resources)},
             {"epoch", std::to_string(config.epoch_length)},
             {"profiles", std::to_string(config.num_profiles)},
             {"churn_ops", StringFormat("%.0f", config.churn.ops_per_chronon)},
             {"checkpoint_every", "wal-size"}},
            {{"gc", last.gc},
             {"probes", static_cast<double>(last.probes)},
             {"reports_equal", 1.0},
             {"snapshots_written",
              static_cast<double>(last.durable.snapshots_written)},
             {"snapshot_bytes",
              static_cast<double>(last.durable.snapshot_bytes)},
             {"wal_records",
              static_cast<double>(last.durable.wal_records_logged)},
             {"volatile_seconds", volatile_min},
             {"durable_seconds", durable_min},
             {"overhead_ratio", overhead}}});
  json.Add({"fig5_churn_durability_periodic",
            {{"resources", std::to_string(config.num_resources)},
             {"epoch", std::to_string(config.epoch_length)},
             {"profiles", std::to_string(config.num_profiles)},
             {"churn_ops", StringFormat("%.0f", config.churn.ops_per_chronon)},
             {"checkpoint_every", std::to_string(kPeriodicEvery)}},
            {{"gc", last.gc},
             {"probes", static_cast<double>(last.probes)},
             {"reports_equal", 1.0},
             {"snapshots_written",
              static_cast<double>(last.periodic.snapshots_written)},
             {"snapshot_bytes",
              static_cast<double>(last.periodic.snapshot_bytes)},
             {"wal_records",
              static_cast<double>(last.periodic.wal_records_logged)},
             {"wal_records_replayed",
              static_cast<double>(last.wal_records_replayed)},
             {"durable_seconds", periodic_min},
             {"overhead_ratio", periodic_overhead},
             {"recovery_seconds", recovery_seconds.mean()}}});
  if (!json.WriteIfRequested(options.common)) return 1;

  if (options.gate && overhead > 0.05) {
    std::cerr << "FAIL: durable run costs "
              << TablePrinter::FormatDouble(overhead * 100.0, 2)
              << "% GC throughput (bar: 5%)\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pullmon

int main(int argc, char** argv) {
  pullmon::RecoveryBenchOptions options =
      pullmon::ParseRecoveryFlags(argc, argv);
  return pullmon::RunBench(options);
}
