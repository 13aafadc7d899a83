#include "recovery/durable_runner.h"

#include <optional>
#include <utility>
#include <vector>

#include "recovery/checkpoint.h"
#include "recovery/recovery_codec.h"
#include "recovery/wal.h"
#include "sim/monitor_run.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace pullmon {

Status DurableOptions::Validate() const {
  if (storage == nullptr) {
    return Status::InvalidArgument("durable run needs a storage backend");
  }
  if (checkpoint_every < 0) {
    return Status::InvalidArgument("checkpoint_every must be >= 0");
  }
  if (snapshot_wal_bytes == 0) {
    return Status::InvalidArgument("snapshot_wal_bytes must be > 0");
  }
  return Status::OK();
}

std::uint64_t RunFingerprint(const SimulationConfig& config,
                             const PolicySpec& spec, std::uint64_t seed) {
  // Canonical full-precision serialization of everything the run's
  // behavior depends on; a changed knob changes the fingerprint and the
  // snapshot is refused. (The WAL verification during replay is the
  // backstop for anything a hash collision would let through.)
  std::string bytes;
  AppendVarint(static_cast<std::uint64_t>(config.dataset), &bytes);
  AppendSigned(config.num_resources, &bytes);
  AppendSigned(config.epoch_length, &bytes);
  AppendSigned(config.num_profiles, &bytes);
  AppendSigned(config.max_rank, &bytes);
  AppendDouble(config.lambda, &bytes);
  AppendDouble(config.alpha, &bytes);
  AppendDouble(config.beta, &bytes);
  AppendVarint(static_cast<std::uint64_t>(config.restriction), &bytes);
  AppendSigned(config.window, &bytes);
  AppendSigned(config.budget, &bytes);
  AppendSigned(config.max_t_intervals_per_profile, &bytes);
  const AuctionTraceOptions& a = config.auction;
  AppendDouble(a.mean_duration_fraction, &bytes);
  AppendDouble(a.base_bid_rate, &bytes);
  AppendDouble(a.snipe_intensity, &bytes);
  AppendDouble(a.snipe_tau_fraction, &bytes);
  AppendDouble(a.start_price_min, &bytes);
  AppendDouble(a.start_price_max, &bytes);
  AppendDouble(a.increment_mean, &bytes);
  AppendSigned(a.num_bidders, &bytes);
  bytes.push_back(a.seed_opening_bid ? 1 : 0);
  const FeedWorkloadOptions& fw = config.feed_workload;
  AppendSigned(fw.chronons_per_hour, &bytes);
  AppendDouble(fw.periodic_fraction, &bytes);
  AppendDouble(fw.period_jitter, &bytes);
  AppendDouble(fw.period_spread, &bytes);
  AppendDouble(fw.aperiodic_lambda, &bytes);
  AppendDouble(fw.popularity_alpha, &bytes);
  const FaultOptions& f = config.faults;
  AppendDouble(f.timeout_rate, &bytes);
  AppendDouble(f.server_error_rate, &bytes);
  AppendDouble(f.truncation_rate, &bytes);
  AppendDouble(f.corruption_rate, &bytes);
  AppendDouble(f.etag_storm_rate, &bytes);
  AppendSigned(f.etag_storm_length, &bytes);
  AppendDouble(f.latency_mean, &bytes);
  AppendDouble(f.latency_timeout, &bytes);
  AppendDouble(f.outage_enter_rate, &bytes);
  AppendDouble(f.outage_exit_rate, &bytes);
  AppendFixed64(config.fault_seed, &bytes);
  AppendSigned(config.retry.max_retries, &bytes);
  AppendDouble(config.retry.backoff_base, &bytes);
  AppendDouble(config.retry.backoff_multiplier, &bytes);
  AppendDouble(config.retry.backoff_budget, &bytes);
  const BreakerOptions& b = config.breaker;
  bytes.push_back(b.enabled ? 1 : 0);
  AppendSigned(b.failure_threshold, &bytes);
  AppendSigned(b.cooldown_base, &bytes);
  AppendDouble(b.cooldown_multiplier, &bytes);
  AppendSigned(b.max_cooldown, &bytes);
  AppendDouble(b.ewma_alpha, &bytes);
  AppendVarint(static_cast<std::uint64_t>(config.executor_backend), &bytes);
  AppendSigned(config.feed_buffer_capacity, &bytes);
  bytes.push_back(config.parse_cache ? 1 : 0);
  const ChurnOptions& c = config.churn;
  bytes.push_back(c.enabled ? 1 : 0);
  AppendDouble(c.ops_per_chronon, &bytes);
  AppendDouble(c.cancel_fraction, &bytes);
  AppendDouble(c.edit_fraction, &bytes);
  AppendDouble(c.unregister_fraction, &bytes);
  AppendDouble(c.zipf_theta, &bytes);
  AppendFixed64(c.seed, &bytes);
  AppendLengthPrefixed(spec.policy, &bytes);
  AppendVarint(static_cast<std::uint64_t>(spec.mode), &bytes);
  AppendFixed64(seed, &bytes);
  return Fnv1a64(bytes);
}

Result<ProxyRunReport> RunDurableOnce(const SimulationConfig& config,
                                      const PolicySpec& spec,
                                      std::uint64_t seed,
                                      const DurableOptions& options) {
  PULLMON_RETURN_NOT_OK(options.Validate());
  // The substrate (problem, trace, network, policy) and the churn
  // workload are pure functions of (config, spec, seed), which is why
  // none of them live in the snapshot.
  MonitorRun run;
  PULLMON_RETURN_NOT_OK(
      run.Start(config, spec, seed, MonitorRun::Kind::kChurn));
  const std::uint64_t fingerprint = RunFingerprint(config, spec, seed);
  ProxyRunReport& report = run.report();

  // Every probe attempt lands in the chronon's WAL group (or is
  // verified against it during replay), in canonical attempt order.
  WalChronon current;
  run.session().set_observer([&current](const PullAttempt& attempt) {
    current.probes.push_back(WalProbeRecord{
        attempt.resource,
        static_cast<std::uint8_t>(attempt.success ? 1 : 0)});
  });

  // All durable writes of the run itself go through the crash wrapper;
  // the recovery scan below reads the raw storage (it models the *next*
  // process, which the planned kill does not touch).
  CrashInjectedStorage storage(options.storage, options.crash);

  Chronon start = 0;
  std::vector<WalChronon> replay;
  std::size_t wal_base_bytes = 0;
  Chronon generation = -1;
  std::optional<WalWriter> wal;
  bool restored = false;

  if (options.recover) {
    PULLMON_ASSIGN_OR_RETURN(
        LoadedCheckpoint loaded,
        LoadNewestCheckpoint(options.storage, fingerprint));
    if (loaded.found) {
      start = loaded.snapshot.chronon;
      // The stream rebuilds the definitions the snapshot names by origin.
      PULLMON_ASSIGN_OR_RETURN(
          std::vector<TInterval> definitions,
          run.stream().Resume(start, loaded.snapshot.monitor.submissions,
                              std::move(loaded.snapshot.origins)));
      PULLMON_RETURN_NOT_OK(run.monitor().Restore(loaded.snapshot.monitor,
                                                  std::move(definitions)));
      PULLMON_RETURN_NOT_OK(run.session().Restore(loaded.snapshot.session));
      static_cast<LiveReportCounters&>(report) = loaded.snapshot;
      generation = start;
      replay = std::move(loaded.wal.chronons);
      wal_base_bytes = loaded.wal.valid_bytes;
      wal.emplace(&storage, WalFileName(generation));
      restored = true;
      report.recovery_snapshots_loaded = 1;
      report.recovery_snapshots_rejected = loaded.snapshots_rejected;
      report.recovery_torn_tail_truncated = loaded.wal.torn_bytes;
    } else if (loaded.snapshots_seen == 0) {
      return Status::NotFound(
          "nothing to recover: the checkpoint directory holds no "
          "snapshots");
    } else {
      // Every durable generation was torn or corrupt — the crash hit
      // before the first snapshot completed. Nothing valid exists to
      // replay, so the run starts from scratch (counting what it
      // refused to trust).
      report.recovery_snapshots_rejected = loaded.snapshots_rejected;
    }
  }

  if (!restored) {
    PULLMON_RETURN_NOT_OK(ClearCheckpoints(options.storage));
    run.RegisterProfiles();
  }

  std::size_t replay_idx = 0;
  for (Chronon now = start; now < run.problem().epoch.length; ++now) {
    storage.SetChronon(now);
    const bool replaying = replay_idx < replay.size();

    // --- Checkpoint decision at the boundary, before the chronon
    // --- executes. Never during replay: generation `start` already
    // --- covers those chronons durably.
    if (!replaying) {
      const std::size_t wal_bytes =
          wal_base_bytes + (wal.has_value() ? wal->bytes_flushed() : 0);
      const bool due =
          !wal.has_value() ||
          (options.checkpoint_every > 0 && now != generation &&
           now % options.checkpoint_every == 0) ||
          (now != generation && wal_bytes >= options.snapshot_wal_bytes);
      if (due) {
        ProxySnapshot snapshot;
        snapshot.fingerprint = fingerprint;
        snapshot.chronon = now;
        snapshot.monitor = run.monitor().Capture();
        snapshot.origins = run.stream().origins();
        snapshot.session = run.session().Capture();
        static_cast<LiveReportCounters&>(snapshot) = report;
        PULLMON_RETURN_NOT_OK(WriteSnapshotFile(&storage, snapshot));
        ++report.recovery_snapshots_written;
        generation = now;
        wal_base_bytes = 0;
        wal.emplace(&storage, WalFileName(generation));
        PULLMON_RETURN_NOT_OK(PruneCheckpoints(&storage, generation));
      }
    }

    // --- Execute the chronon, accumulating its WAL group. -------------
    current = WalChronon{};
    current.chronon = now;
    PULLMON_RETURN_NOT_OK(
        run.StepChronon([&current](const ChurnStream::Op& op) {
          current.churn.push_back(WalChurnRecord{
              static_cast<std::uint8_t>(op.kind), op.profile, op.submission,
              static_cast<std::uint8_t>(op.accepted ? 1 : 0)});
        }));

    if (replaying) {
      // Recovery replay: the re-executed chronon must match the audit
      // trail the pre-crash process committed — any divergence means
      // the state or configuration is not what the WAL was written
      // under, and resuming would silently corrupt the run.
      const WalChronon& expected = replay[replay_idx++];
      if (expected.chronon != now || expected.churn != current.churn ||
          expected.probes != current.probes) {
        return Status::Internal(StringFormat(
            "WAL replay divergence at chronon %d: the re-executed "
            "chronon does not match the committed log",
            now));
      }
      report.recovery_wal_records_replayed +=
          expected.churn.size() + expected.probes.size() + 2;
    } else {
      wal->LogChrononStart(now);
      for (const WalChurnRecord& op : current.churn) wal->LogChurn(op);
      for (const WalProbeRecord& probe : current.probes) {
        wal->LogProbe(probe);
      }
      PULLMON_RETURN_NOT_OK(wal->CommitChronon(now));
      report.recovery_wal_records_logged +=
          current.churn.size() + current.probes.size() + 2;
    }
  }
  return run.Finish();
}

}  // namespace pullmon
