#ifndef PULLMON_RECOVERY_DURABLE_RUNNER_H_
#define PULLMON_RECOVERY_DURABLE_RUNNER_H_

#include <cstddef>
#include <cstdint>

#include "recovery/crash_plan.h"
#include "recovery/stable_storage.h"
#include "sim/experiment.h"
#include "util/status.h"

namespace pullmon {

/// Durability knobs of RunDurableOnce.
struct DurableOptions {
  /// Where snapshots and WALs live; required, must outlive the run.
  StableStorage* storage = nullptr;
  /// Snapshot every N chronon boundaries (0 = only the initial snapshot
  /// and WAL-size-triggered ones).
  Chronon checkpoint_every = 0;
  /// A generation's WAL growing past this many bytes triggers a fresh
  /// snapshot at the next boundary, bounding replay work after a crash.
  /// Replay is deterministic re-execution (fast — no probes hit the
  /// network), so the default trades generously toward throughput: at
  /// the Figure-5 churn arm an epoch logs roughly half a megabyte, so
  /// 1 MiB amortizes the ~0.5 MB snapshot encode over about two epochs
  /// of work while still bounding post-crash replay to seconds.
  std::size_t snapshot_wal_bytes = 1024 * 1024;
  /// Resume from the newest valid snapshot in `storage` instead of
  /// starting fresh. NotFound when the directory holds no checkpoint
  /// files at all; if files exist but every generation is torn or
  /// corrupt (a crash before the first snapshot became durable), the
  /// run starts fresh with the rejections counted in the report.
  bool recover = false;
  /// Crash-injection point for the recovery harness; disarmed by
  /// default. An armed plan makes the run fail with Status::Aborted at
  /// the planned write, leaving storage exactly as a process kill
  /// would.
  CrashPlan crash;

  Status Validate() const;
};

/// Fingerprint of (config, spec, seed) stored in every snapshot: a
/// resumed run refuses state written under a different configuration
/// instead of silently diverging.
std::uint64_t RunFingerprint(const SimulationConfig& config,
                             const PolicySpec& spec, std::uint64_t seed);

/// The durable twin of RunChurnOnce (sim/churn.cc): the identical
/// simulation on the same MonitorRun core — same problem, trace, churn
/// workload, probe path, and seeds — with proxy state checkpointed to
/// stable storage and a WAL of churn ops and probe outcomes
/// group-flushed at every chronon boundary. Like RunChurnOnce it needs
/// oracle knowledge (InvalidArgument for KnowledgeModel::kEstimated).
/// Without a crash the returned report equals RunChurnOnce's on every
/// field except the recovery_* telemetry (the recovery differential
/// suite enforces this); after a crash, running again with
/// `recover = true` loads the newest valid snapshot, verifies the
/// re-executed chronons against the WAL, and finishes the epoch with —
/// again — the identical report.
Result<ProxyRunReport> RunDurableOnce(const SimulationConfig& config,
                                      const PolicySpec& spec,
                                      std::uint64_t seed,
                                      const DurableOptions& options);

}  // namespace pullmon

#endif  // PULLMON_RECOVERY_DURABLE_RUNNER_H_
