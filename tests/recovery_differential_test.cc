// The correctness oracle of the durability layer (DESIGN.md section
// 15): because every run is deterministic in (config, spec, seed), a
// crash-recovered run must finish with a ProxyRunReport equal to the
// uninterrupted run's on every field except the recovery telemetry.
// The suite sweeps ~200 seeded scenarios (clean, faults, breakers,
// churn, parse cache; both executor backends; both trace backends)
// through the durable runner, kills it at every chronon boundary with
// several torn-write offsets, recovers, and demands full-report
// equality via the shared comparator — plus the negative paths:
// corrupted snapshots are rejected (never silently replayed),
// fingerprint mismatches refuse to resume, and recovering from nothing
// is an explicit error.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "recovery/checkpoint.h"
#include "recovery/crash_plan.h"
#include "recovery/durable_runner.h"
#include "recovery/recovery_codec.h"
#include "recovery/stable_storage.h"
#include "sim/config.h"
#include "sim/experiment.h"
#include "sim/proxy.h"
#include "trace/update_trace.h"

namespace pullmon {
namespace {

SimulationConfig SmallConfig() {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 18;
  config.num_profiles = 24;
  config.epoch_length = 48;
  config.lambda = 8.0;
  config.budget = 2;
  return config;
}

void AddFaults(SimulationConfig* config) {
  config->faults.timeout_rate = 0.08;
  config->faults.server_error_rate = 0.05;
  config->faults.truncation_rate = 0.04;
  config->faults.corruption_rate = 0.04;
  config->faults.etag_storm_rate = 0.03;
  config->faults.latency_mean = 0.2;
  config->retry.max_retries = 2;
  config->retry.backoff_base = 0.1;
}

void AddBreaker(SimulationConfig* config) {
  config->faults.outage_enter_rate = 0.03;
  config->faults.outage_exit_rate = 0.3;
  config->breaker.enabled = true;
  config->breaker.failure_threshold = 3;
}

void AddChurn(SimulationConfig* config) {
  config->churn.enabled = true;
  config->churn.ops_per_chronon = 1.5;
}

/// The four scenario families the recovery oracle runs over.
SimulationConfig ScenarioConfig(int family) {
  SimulationConfig config = SmallConfig();
  switch (family % 4) {
    case 0:
      break;  // clean
    case 1:
      AddFaults(&config);
      break;
    case 2:
      AddFaults(&config);
      AddBreaker(&config);
      break;
    default:
      AddFaults(&config);
      AddBreaker(&config);
      AddChurn(&config);
      config.parse_cache = true;
      break;
  }
  return config;
}

ProxyRunReport MustChurnRun(const SimulationConfig& config,
                            const PolicySpec& spec, std::uint64_t seed) {
  auto report = RunChurnOnce(config, spec, seed);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return *report;
}

/// Uninterrupted durable runs must behave exactly like the plain churn
/// runner on every field — checkpointing and WAL writes are observable
/// only through the recovery telemetry. ~200 scenarios across the four
/// families, both executor backends, both trace backends, and the
/// Section-5 policy line-up.
TEST(RecoveryDifferentialTest, UninterruptedDurableRunMatchesChurnRunner) {
  const std::vector<PolicySpec> specs = StandardPolicySpecs();
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    SimulationConfig config = ScenarioConfig(static_cast<int>(seed));
    const ExecutorBackend backends[] = {ExecutorBackend::kIndexed,
                                        ExecutorBackend::kReference};
    config.executor_backend = backends[(seed / 4) % 2];
    config.trace_backend = (seed / 8) % 2 == 0 ? TraceBackend::kInMemory
                                               : TraceBackend::kPaged;
    const PolicySpec& spec = specs[seed % specs.size()];
    const std::string label =
        spec.Label() + " seed=" + std::to_string(seed) + " family=" +
        std::to_string(seed % 4);

    const ProxyRunReport baseline = MustChurnRun(config, spec, seed);

    MemoryStorage storage;
    DurableOptions options;
    options.storage = &storage;
    options.checkpoint_every = 7;
    auto durable = RunDurableOnce(config, spec, seed, options);
    ASSERT_TRUE(durable.ok()) << label << ": "
                              << durable.status().ToString();
    ASSERT_EQ(ReportDifference(*durable, baseline), "") << label;
    EXPECT_GE(durable->recovery_snapshots_written, 1u) << label;
    EXPECT_GT(durable->recovery_wal_records_logged, 0u) << label;
    EXPECT_EQ(durable->recovery_snapshots_loaded, 0u) << label;
    EXPECT_EQ(durable->recovery_wal_records_replayed, 0u) << label;
  }
}

/// One crash/recover cycle: run with the crash plan (must abort), then
/// recover on the same storage and return the finished report.
ProxyRunReport CrashThenRecover(const SimulationConfig& config,
                                const PolicySpec& spec, std::uint64_t seed,
                                const DurableOptions& base,
                                MemoryStorage* storage, Chronon crash_at,
                                std::size_t write_offset,
                                const std::string& label) {
  DurableOptions crashing = base;
  crashing.storage = storage;
  crashing.crash.chronon = crash_at;
  crashing.crash.write_offset = write_offset;
  auto killed = RunDurableOnce(config, spec, seed, crashing);
  if (killed.ok()) {
    // Late boundary + deep offset: fewer durable bytes remained than
    // the plan's allowance, so the kill never fired and the run simply
    // finished. It must then match the baseline like any other.
    return *killed;
  }
  EXPECT_EQ(killed.status().code(), StatusCode::kAborted) << label;

  DurableOptions recovering = base;
  recovering.storage = storage;
  recovering.recover = true;
  auto recovered = RunDurableOnce(config, spec, seed, recovering);
  EXPECT_TRUE(recovered.ok())
      << label << ": " << recovered.status().ToString();
  return recovered.ok() ? *recovered : ProxyRunReport{};
}

/// The tentpole oracle: kill the run at *every* chronon boundary (and
/// several byte offsets into the boundary's durable writes), recover,
/// finish, and require the report equal to the uninterrupted run's.
/// Scenario arms cover the hard combinations: churn + faults + breaker
/// + parse cache on every executor backend, and the paged trace store.
TEST(RecoveryDifferentialTest, CrashAtEveryBoundaryRecoversExactly) {
  struct Arm {
    int family;
    ExecutorBackend backend;
    TraceBackend trace;
    const char* policy;
    std::uint64_t seed;
  };
  const std::vector<Arm> arms = {
      {0, ExecutorBackend::kIndexed, TraceBackend::kInMemory, "MRSF", 17},
      {2, ExecutorBackend::kIndexed, TraceBackend::kInMemory, "S-EDF", 53},
      {3, ExecutorBackend::kIndexed, TraceBackend::kInMemory, "MRSF", 91},
      {3, ExecutorBackend::kReference, TraceBackend::kInMemory, "MRSF", 91},
      {3, ExecutorBackend::kIndexed, TraceBackend::kPaged, "MRSF", 29},
      {1, ExecutorBackend::kReference, TraceBackend::kPaged, "S-EDF", 71},
  };
  for (const Arm& arm : arms) {
    SimulationConfig config = ScenarioConfig(arm.family);
    config.executor_backend = arm.backend;
    config.trace_backend = arm.trace;
    PolicySpec spec{arm.policy, ExecutionMode::kPreemptive};
    const ProxyRunReport baseline = MustChurnRun(config, spec, arm.seed);

    DurableOptions base;
    base.checkpoint_every = 5;
    for (Chronon crash_at = 0; crash_at < config.epoch_length;
         ++crash_at) {
      // Offset 0 tears the boundary's first write at its first byte;
      // the others land mid-snapshot and mid-WAL-flush.
      for (std::size_t offset : {std::size_t{0}, std::size_t{40},
                                 std::size_t{700}}) {
        const std::string label =
            std::string("family=") + std::to_string(arm.family) +
            " policy=" + arm.policy + " crash_at=" +
            std::to_string(crash_at) + " offset=" + std::to_string(offset);
        MemoryStorage storage;
        ProxyRunReport recovered =
            CrashThenRecover(config, spec, arm.seed, base, &storage,
                             crash_at, offset, label);
        if (HasFatalFailure()) return;
        ASSERT_EQ(ReportDifference(recovered, baseline), "") << label;
      }
    }
  }
}

/// A snapshot keeps the parse cache's entry keys, not its documents: a
/// restored entry is pending until its first hit parses the body that
/// hit it. Durable runs schedule on oracle knowledge, where every EI
/// opens at an update and a conditional fetch of unchanged content is
/// answered 304, so their cache never hits; this test therefore drives
/// the pull session itself. One feed updated every 8 chronons is probed
/// every chronon through ETag storms, which hit the cache by content
/// (inside a storm) and by validator (the first full body after one).
/// The session is checkpointed through a snapshot file at every
/// boundary where the feed has a cached entry and resumed on a fresh
/// network and session; the resumed leg must count exactly the
/// uninterrupted run's cache hits, parsed items and live counters, and
/// both keys must land on a pending entry somewhere in the sweep.
TEST(RecoveryDifferentialTest, RestoredCacheEntriesFillOnTheirFirstHit) {
  constexpr Chronon kEpoch = 64;
  UpdateTrace trace(1, kEpoch);
  for (Chronon t = 0; t < kEpoch; t += 8) {
    ASSERT_TRUE(trace.AddEvent(0, t).ok());
  }
  ProxyOptions options;
  options.faults.etag_storm_rate = 0.3;
  options.faults.etag_storm_length = 3;
  options.parse_cache = true;

  struct Leg {
    explicit Leg(const UpdateTrace* trace, const ProxyOptions& options)
        : network(trace, 4), session(&network, 1, options, &report) {}
    FeedNetwork network;
    ProxyRunReport report;
    FeedPullSession session;
  };
  auto finish = [](Leg* leg) {
    leg->session.FinishReport(OnlineRunResult{});
    return leg->report;
  };
  Leg uninterrupted(&trace, options);
  for (Chronon t = 0; t < kEpoch; ++t) uninterrupted.session.Probe(0, t);
  const ProxyRunReport baseline = finish(&uninterrupted);
  ASSERT_GT(baseline.parse_cache_hits, 0u);

  std::size_t content_fills = 0;
  std::size_t validator_fills = 0;
  for (Chronon boundary = 1; boundary < kEpoch; ++boundary) {
    const std::string label = "boundary=" + std::to_string(boundary);
    Leg crashed(&trace, options);
    for (Chronon t = 0; t < boundary; ++t) crashed.session.Probe(0, t);
    ProxySnapshot snapshot;
    snapshot.chronon = snapshot.monitor.now = boundary;
    snapshot.session = crashed.session.Capture();
    static_cast<LiveReportCounters&>(snapshot) = crashed.report;
    if (!snapshot.session.parse_cache->entries[0].valid) continue;
    auto decoded = DecodeSnapshot(EncodeSnapshot(snapshot));
    ASSERT_TRUE(decoded.ok()) << label << ": "
                              << decoded.status().ToString();

    Leg resumed(&trace, options);
    ASSERT_TRUE(resumed.session.Restore(decoded->session).ok()) << label;
    static_cast<LiveReportCounters&>(resumed.report) = *decoded;
    for (Chronon t = boundary; t < kEpoch; ++t) resumed.session.Probe(0, t);
    ASSERT_TRUE(resumed.session.status().ok())
        << label << ": " << resumed.session.status().ToString();
    const ProxyRunReport report = finish(&resumed);
    EXPECT_TRUE(static_cast<const ParseCacheStats&>(report) ==
                static_cast<const ParseCacheStats&>(baseline))
        << label;
    EXPECT_EQ(report.items_parsed, baseline.items_parsed) << label;
    ASSERT_EQ(ReportDifference(report, baseline), "") << label;
    const PendingFillStats& fills =
        resumed.session.parse_cache()->pending_fills();
    content_fills += fills.content_fills;
    validator_fills += fills.validator_fills;
  }
  EXPECT_GT(content_fills, 0u);
  EXPECT_GT(validator_fills, 0u);
}

/// Crashing inside the very first snapshot leaves no durable state at
/// all; recovery then starts from scratch — and still matches.
TEST(RecoveryDifferentialTest, CrashBeforeFirstSnapshotRecoversFresh) {
  SimulationConfig config = ScenarioConfig(3);
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  const std::uint64_t seed = 5;
  const ProxyRunReport baseline = MustChurnRun(config, spec, seed);

  MemoryStorage storage;
  DurableOptions base;
  base.checkpoint_every = 5;
  ProxyRunReport recovered = CrashThenRecover(
      config, spec, seed, base, &storage, 0, 10, "first-snapshot-crash");
  EXPECT_EQ(ReportDifference(recovered, baseline), "")
      << "first-snapshot-crash";
  EXPECT_EQ(recovered.recovery_snapshots_loaded, 0u);
  EXPECT_GE(recovered.recovery_snapshots_rejected, 1u);
}

/// Snapshot-triggering by WAL growth: with periodic checkpoints off,
/// the WAL-size threshold alone must roll generations.
TEST(RecoveryDifferentialTest, WalSizeTriggersSnapshotsAndStaysExact) {
  SimulationConfig config = ScenarioConfig(3);
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  const std::uint64_t seed = 23;
  const ProxyRunReport baseline = MustChurnRun(config, spec, seed);

  MemoryStorage storage;
  DurableOptions options;
  options.storage = &storage;
  options.checkpoint_every = 0;  // no periodic trigger
  options.snapshot_wal_bytes = 256;
  auto durable = RunDurableOnce(config, spec, seed, options);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  EXPECT_EQ(ReportDifference(*durable, baseline), "") << "wal-size-trigger";
  EXPECT_GE(durable->recovery_snapshots_written, 3u);

  // And a crash mid-epoch on the same trigger recovers exactly.
  MemoryStorage crashed_storage;
  DurableOptions base;
  base.checkpoint_every = 0;
  base.snapshot_wal_bytes = 256;
  ProxyRunReport recovered =
      CrashThenRecover(config, spec, seed, base, &crashed_storage,
                       config.epoch_length / 2, 120, "wal-size-crash");
  EXPECT_EQ(ReportDifference(recovered, baseline), "") << "wal-size-crash";
}

/// Corruption sweep at the storage level: after a crash, flip one bit
/// somewhere in the surviving checkpoint files; recovery must either
/// reject the damaged generation (falling back to an older one or to a
/// fresh start) or — when the flip lands in the WAL — truncate by the
/// torn-tail rule. In every case the finished report equals the
/// uninterrupted run's; corrupted state is never silently replayed.
TEST(RecoveryDifferentialTest, BitFlippedCheckpointFilesNeverCorruptTheRun) {
  SimulationConfig config = ScenarioConfig(3);
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  const std::uint64_t seed = 11;
  const ProxyRunReport baseline = MustChurnRun(config, spec, seed);

  DurableOptions base;
  base.checkpoint_every = 5;
  const Chronon crash_at = 31;

  // Lay down the crashed state once to learn the file set, then redo
  // the crash freshly for every corruption target (recovery mutates
  // storage, so trials must not share it).
  MemoryStorage probe_storage;
  {
    DurableOptions crashing = base;
    crashing.storage = &probe_storage;
    crashing.crash.chronon = crash_at;
    crashing.crash.write_offset = 200;
    auto killed = RunDurableOnce(config, spec, seed, crashing);
    ASSERT_FALSE(killed.ok());
  }
  auto files = probe_storage.ListFiles();
  ASSERT_TRUE(files.ok());
  ASSERT_FALSE(files->empty());

  for (const std::string& victim : *files) {
    const std::size_t size = probe_storage.ReadFile(victim)->size();
    // A spread of bit positions per file: front, middle, back.
    for (std::size_t bit :
         {std::size_t{3}, size * 8 / 2, size * 8 - 5}) {
      const std::string label =
          "victim=" + victim + " bit=" + std::to_string(bit);
      MemoryStorage storage;
      DurableOptions crashing = base;
      crashing.storage = &storage;
      crashing.crash.chronon = crash_at;
      crashing.crash.write_offset = 200;
      auto killed = RunDurableOnce(config, spec, seed, crashing);
      ASSERT_FALSE(killed.ok()) << label;

      std::string* bytes = storage.MutableFile(victim);
      ASSERT_NE(bytes, nullptr) << label;
      FlipBit(bytes, bit % (bytes->size() * 8));

      DurableOptions recovering = base;
      recovering.storage = &storage;
      recovering.recover = true;
      auto recovered = RunDurableOnce(config, spec, seed, recovering);
      ASSERT_TRUE(recovered.ok())
          << label << ": " << recovered.status().ToString();
      ASSERT_EQ(ReportDifference(*recovered, baseline), "") << label;
    }
  }
}

TEST(RecoveryDifferentialTest, RecoverFromEmptyStorageIsNotFound) {
  SimulationConfig config = ScenarioConfig(0);
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  MemoryStorage storage;
  DurableOptions options;
  options.storage = &storage;
  options.recover = true;
  auto result = RunDurableOnce(config, spec, 1, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(RecoveryDifferentialTest, FingerprintMismatchRefusesToResume) {
  SimulationConfig config = ScenarioConfig(3);
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  MemoryStorage storage;
  DurableOptions crashing;
  crashing.storage = &storage;
  crashing.checkpoint_every = 5;
  crashing.crash.chronon = 20;
  crashing.crash.write_offset = 100;
  ASSERT_FALSE(RunDurableOnce(config, spec, 3, crashing).ok());

  DurableOptions recovering;
  recovering.storage = &storage;
  recovering.checkpoint_every = 5;
  recovering.recover = true;

  // A different seed is a different run: resuming would silently
  // diverge, so the load refuses outright.
  auto wrong_seed = RunDurableOnce(config, spec, 4, recovering);
  ASSERT_FALSE(wrong_seed.ok());
  EXPECT_EQ(wrong_seed.status().code(), StatusCode::kFailedPrecondition);

  // So is a different config knob...
  SimulationConfig other = config;
  other.budget += 1;
  auto wrong_config = RunDurableOnce(other, spec, 3, recovering);
  ASSERT_FALSE(wrong_config.ok());
  EXPECT_EQ(wrong_config.status().code(),
            StatusCode::kFailedPrecondition);

  // ...or a different policy.
  PolicySpec other_spec{"S-EDF", ExecutionMode::kPreemptive};
  auto wrong_policy = RunDurableOnce(config, other_spec, 3, recovering);
  ASSERT_FALSE(wrong_policy.ok());
  EXPECT_EQ(wrong_policy.status().code(),
            StatusCode::kFailedPrecondition);

  // The matching run resumes fine.
  auto right = RunDurableOnce(config, spec, 3, recovering);
  EXPECT_TRUE(right.ok()) << right.status().ToString();
}

/// A fresh (non-recovering) run on a dirty directory clears it first:
/// stale generations from an earlier run never leak into the new one.
TEST(RecoveryDifferentialTest, FreshRunClearsStaleCheckpoints) {
  SimulationConfig config = ScenarioConfig(1);
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  MemoryStorage storage;
  ASSERT_TRUE(
      storage.WriteFile("snap-00000099.pmsnap", "stale garbage").ok());
  ASSERT_TRUE(storage.WriteFile("wal-00000099.pmwal", "stale").ok());
  ASSERT_TRUE(storage.WriteFile("unrelated.txt", "keep me").ok());

  DurableOptions options;
  options.storage = &storage;
  options.checkpoint_every = 10;
  auto report = RunDurableOnce(config, spec, 9, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  auto files = storage.ListFiles();
  ASSERT_TRUE(files.ok());
  for (const std::string& name : *files) {
    EXPECT_NE(name, "snap-00000099.pmsnap");
    EXPECT_NE(name, "wal-00000099.pmwal");
  }
  EXPECT_TRUE(storage.ReadFile("unrelated.txt").ok());

  const ProxyRunReport baseline = MustChurnRun(config, spec, 9);
  EXPECT_EQ(ReportDifference(*report, baseline), "") << "fresh-after-stale";
}

/// Old generations are pruned as new snapshots land: storage holds at
/// most the current generation plus the one being superseded, not the
/// whole history.
TEST(RecoveryDifferentialTest, CheckpointGenerationsArePruned) {
  SimulationConfig config = ScenarioConfig(0);
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  MemoryStorage storage;
  DurableOptions options;
  options.storage = &storage;
  options.checkpoint_every = 4;
  auto report = RunDurableOnce(config, spec, 2, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->recovery_snapshots_written,
            static_cast<std::size_t>(config.epoch_length / 4));

  auto files = storage.ListFiles();
  ASSERT_TRUE(files.ok());
  std::size_t snapshots = 0;
  for (const std::string& name : *files) {
    if (ParseSnapshotFileName(name) >= 0) ++snapshots;
  }
  EXPECT_EQ(snapshots, 1u);
}

}  // namespace
}  // namespace pullmon
