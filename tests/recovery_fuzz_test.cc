// Mutation fuzzing of the durability codecs and the recovery path
// (labelled `fuzz`; CI runs it under asan/ubsan). The deterministic
// recovery_codec_test proves the exhaustive single-bit and
// single-truncation properties; this suite throws *random* damage —
// multi-byte splices, overwrites, duplicated and shuffled files,
// arbitrary garbage — at DecodeSnapshot, ReadWal and
// LoadNewestCheckpoint, and runs randomized crash-plan trials
// end-to-end. The invariants under fuzz are memory-safety (asan is the
// oracle), error-not-crash on arbitrary input, the WAL prefix
// discipline, and — for the end-to-end trials — exact report equality
// after recovery.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "recovery/checkpoint.h"
#include "recovery/crash_plan.h"
#include "recovery/durable_runner.h"
#include "recovery/recovery_codec.h"
#include "recovery/stable_storage.h"
#include "recovery/wal.h"
#include "sim/config.h"
#include "sim/experiment.h"
#include "util/random.h"

namespace pullmon {
namespace {

/// Applies one random mutation: an in-place byte splice, a truncation,
/// an extension with garbage, or a block overwrite.
void Mutate(Rng* rng, std::string* bytes) {
  if (bytes->empty()) {
    bytes->push_back(static_cast<char>(rng->Next() & 0xFF));
    return;
  }
  switch (rng->NextBounded(4)) {
    case 0: {  // overwrite a run of bytes
      std::size_t at = rng->NextBounded(bytes->size());
      std::size_t len = 1 + rng->NextBounded(8);
      for (std::size_t i = at; i < bytes->size() && i < at + len; ++i) {
        (*bytes)[i] = static_cast<char>(rng->Next() & 0xFF);
      }
      break;
    }
    case 1:  // truncate
      bytes->resize(rng->NextBounded(bytes->size()));
      break;
    case 2: {  // append garbage
      std::size_t len = 1 + rng->NextBounded(16);
      for (std::size_t i = 0; i < len; ++i) {
        bytes->push_back(static_cast<char>(rng->Next() & 0xFF));
      }
      break;
    }
    default: {  // single bit flip
      FlipBit(bytes, rng->NextBounded(bytes->size() * 8));
      break;
    }
  }
}

SimulationConfig FuzzConfig(Rng* rng) {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 12 + static_cast<int>(rng->NextBounded(10));
  config.num_profiles = 16 + static_cast<int>(rng->NextBounded(12));
  config.epoch_length = 32 + static_cast<Chronon>(rng->NextBounded(16));
  config.lambda = 6.0 + 4.0 * rng->NextDouble();
  config.budget = 1 + static_cast<int>(rng->NextBounded(2));
  if (rng->NextBounded(2) == 0) {
    config.faults.timeout_rate = 0.10 * rng->NextDouble();
    config.faults.server_error_rate = 0.08 * rng->NextDouble();
    config.faults.corruption_rate = 0.06 * rng->NextDouble();
    config.faults.etag_storm_rate = 0.05 * rng->NextDouble();
    config.retry.max_retries = 1 + static_cast<int>(rng->NextBounded(2));
    config.retry.backoff_base = 0.1;
  }
  if (rng->NextBounded(2) == 0) {
    config.faults.outage_enter_rate = 0.04 * rng->NextDouble();
    config.faults.outage_exit_rate = 0.3;
    config.breaker.enabled = true;
  }
  if (rng->NextBounded(2) == 0) {
    config.churn.enabled = true;
    config.churn.ops_per_chronon = 2.0 * rng->NextDouble();
  }
  config.parse_cache = rng->NextBounded(2) == 0;
  config.executor_backend = rng->NextBounded(2) == 0
                                ? ExecutorBackend::kIndexed
                                : ExecutorBackend::kReference;
  return config;
}

/// A durable run whose storage is left populated — the corpus seed for
/// the file-level fuzzers below.
MemoryStorage PopulatedStorage(const SimulationConfig& config,
                               const PolicySpec& spec, std::uint64_t seed,
                               Chronon crash_at) {
  MemoryStorage storage;
  DurableOptions options;
  options.storage = &storage;
  options.checkpoint_every = 5;
  if (crash_at >= 0) {
    options.crash.chronon = crash_at;
    options.crash.write_offset = 150;
  }
  auto result = RunDurableOnce(config, spec, seed, options);
  EXPECT_EQ(result.ok(), crash_at < 0);
  return storage;
}

/// DecodeSnapshot on pure garbage and on mutated real snapshots:
/// must return an error or a snapshot, never crash or over-read.
TEST(RecoveryFuzzTest, DecodeSnapshotSurvivesArbitraryBytes) {
  Rng rng(0xD0C0DE);
  // Pure garbage of many lengths.
  for (int trial = 0; trial < 400; ++trial) {
    std::string bytes;
    std::size_t len = rng.NextBounded(300);
    for (std::size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Next() & 0xFF));
    }
    auto decoded = DecodeSnapshot(bytes);
    (void)decoded;  // any Status is fine; asan judges the rest
  }

  // Mutated real snapshots, 1-4 mutations each.
  SimulationConfig config = FuzzConfig(&rng);
  MemoryStorage storage =
      PopulatedStorage(config, PolicySpec{"MRSF"}, 3, -1);
  auto files = storage.ListFiles();
  ASSERT_TRUE(files.ok());
  std::string snapshot_bytes;
  for (const std::string& name : *files) {
    if (ParseSnapshotFileName(name) >= 0) {
      snapshot_bytes = *storage.ReadFile(name);
      break;
    }
  }
  ASSERT_FALSE(snapshot_bytes.empty());
  ASSERT_TRUE(DecodeSnapshot(snapshot_bytes).ok());
  for (int trial = 0; trial < 600; ++trial) {
    std::string mutated = snapshot_bytes;
    int mutations = 1 + static_cast<int>(rng.NextBounded(4));
    for (int m = 0; m < mutations; ++m) Mutate(&rng, &mutated);
    auto decoded = DecodeSnapshot(mutated);
    if (decoded.ok()) {
      // A surviving decode (possible only when mutations cancelled out)
      // must still re-encode to exactly what was decoded.
      EXPECT_EQ(EncodeSnapshot(*decoded), mutated);
    }
  }
}

/// ReadWal under random damage: whatever survives must be a clean
/// committed prefix — valid_bytes + torn_bytes spans the input, and
/// re-reading the valid prefix reproduces the same chronons.
TEST(RecoveryFuzzTest, ReadWalPrefixDisciplineUnderFuzz) {
  Rng rng(0x3A1);
  SimulationConfig config = FuzzConfig(&rng);
  config.churn.enabled = true;
  config.churn.ops_per_chronon = 1.0;
  MemoryStorage storage =
      PopulatedStorage(config, PolicySpec{"MRSF"}, 7, -1);
  auto files = storage.ListFiles();
  ASSERT_TRUE(files.ok());
  std::string wal_bytes;
  for (const std::string& name : *files) {
    if (ParseSnapshotFileName(name) < 0) {
      auto read = storage.ReadFile(name);
      if (read.ok() && read->size() > wal_bytes.size()) {
        wal_bytes = *read;  // the fattest WAL in the directory
      }
    }
  }
  ASSERT_FALSE(wal_bytes.empty());

  for (int trial = 0; trial < 600; ++trial) {
    std::string mutated = wal_bytes;
    int mutations = 1 + static_cast<int>(rng.NextBounded(4));
    for (int m = 0; m < mutations; ++m) Mutate(&rng, &mutated);
    auto read = ReadWal(mutated);
    if (!read.ok()) continue;  // structural violation inside a frame
    EXPECT_EQ(read->valid_bytes + read->torn_bytes, mutated.size());
    auto again = ReadWal(mutated.substr(0, read->valid_bytes));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->valid_bytes, read->valid_bytes);
    ASSERT_EQ(again->chronons.size(), read->chronons.size());
    for (std::size_t i = 0; i < read->chronons.size(); ++i) {
      EXPECT_EQ(again->chronons[i].chronon, read->chronons[i].chronon);
      EXPECT_EQ(again->chronons[i].churn, read->chronons[i].churn);
      EXPECT_EQ(again->chronons[i].probes, read->chronons[i].probes);
    }
  }

  // Pure garbage too.
  for (int trial = 0; trial < 400; ++trial) {
    std::string bytes;
    std::size_t len = rng.NextBounded(300);
    for (std::size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Next() & 0xFF));
    }
    auto read = ReadWal(bytes);
    if (read.ok()) {
      EXPECT_EQ(read->valid_bytes + read->torn_bytes, bytes.size());
    }
  }
}

/// LoadNewestCheckpoint over a randomly vandalized directory: random
/// mutations, deletions, duplicated generations and junk files. It must
/// never crash; when it finds a checkpoint, the snapshot must carry the
/// expected fingerprint and an intact WAL prefix.
TEST(RecoveryFuzzTest, LoadNewestCheckpointSurvivesVandalizedDirectories) {
  Rng rng(0x10AD);
  SimulationConfig config = FuzzConfig(&rng);
  PolicySpec spec{"MRSF"};
  const std::uint64_t seed = 13;
  const std::uint64_t fingerprint = RunFingerprint(config, spec, seed);
  MemoryStorage pristine = PopulatedStorage(config, spec, seed, 20);

  auto names = pristine.ListFiles();
  ASSERT_TRUE(names.ok());
  for (int trial = 0; trial < 300; ++trial) {
    MemoryStorage storage;
    for (const std::string& name : *names) {
      ASSERT_TRUE(
          storage.WriteFile(name, *pristine.ReadFile(name)).ok());
    }
    int actions = 1 + static_cast<int>(rng.NextBounded(4));
    for (int a = 0; a < actions; ++a) {
      const std::string& victim =
          (*names)[rng.NextBounded(names->size())];
      switch (rng.NextBounded(4)) {
        case 0: {
          std::string* bytes = storage.MutableFile(victim);
          if (bytes != nullptr) Mutate(&rng, bytes);
          break;
        }
        case 1:
          ASSERT_TRUE(storage.RemoveFile(victim).ok());
          break;
        case 2: {  // duplicate under a plausible newer name
          auto read = storage.ReadFile(victim);
          if (read.ok()) {
            ASSERT_TRUE(storage
                            .WriteFile(SnapshotFileName(
                                           static_cast<Chronon>(
                                               90 + rng.NextBounded(9))),
                                       *read)
                            .ok());
          }
          break;
        }
        default:
          ASSERT_TRUE(storage.WriteFile("junk-" + std::to_string(a),
                                        "not a checkpoint")
                          .ok());
          break;
      }
    }
    auto loaded = LoadNewestCheckpoint(&storage, fingerprint);
    if (!loaded.ok()) continue;  // e.g. fingerprint mismatch path
    if (loaded->found) {
      EXPECT_EQ(loaded->snapshot.fingerprint, fingerprint);
      EXPECT_GE(loaded->snapshot.chronon, 0);
    }
  }
}

/// Randomized end-to-end crash trials: random scenario, random kill
/// point, recover, and the finished report must equal the uninterrupted
/// baseline. The deterministic suite walks every boundary on fixed
/// arms; this walks random arms.
TEST(RecoveryFuzzTest, RandomCrashPlansRecoverExactly) {
  Rng rng(0xC4A54);
  for (int trial = 0; trial < 30; ++trial) {
    SimulationConfig config = FuzzConfig(&rng);
    PolicySpec spec =
        rng.NextBounded(2) == 0
            ? PolicySpec{"MRSF"}
            : PolicySpec{"S-EDF", rng.NextBounded(2) == 0
                                      ? ExecutionMode::kPreemptive
                                      : ExecutionMode::kNonPreemptive};
    const std::uint64_t seed = rng.Next();
    const std::string label = "trial=" + std::to_string(trial);

    auto baseline = RunChurnOnce(config, spec, seed);
    ASSERT_TRUE(baseline.ok()) << label;

    MemoryStorage storage;
    DurableOptions crashing;
    crashing.storage = &storage;
    crashing.checkpoint_every = 1 + static_cast<Chronon>(rng.NextBounded(9));
    crashing.crash.chronon =
        static_cast<Chronon>(rng.NextBounded(
            static_cast<std::uint64_t>(config.epoch_length)));
    crashing.crash.write_offset = rng.NextBounded(600);
    auto killed = RunDurableOnce(config, spec, seed, crashing);

    DurableOptions recovering;
    recovering.storage = &storage;
    recovering.checkpoint_every = crashing.checkpoint_every;
    recovering.recover = !killed.ok();
    if (killed.ok()) {
      // The plan outlived the run's durable writes; nothing to recover.
      EXPECT_EQ(ReportDifference(*killed, *baseline), "") << label;
      continue;
    }
    EXPECT_EQ(killed.status().code(), StatusCode::kAborted) << label;

    // Half the trials additionally vandalize one surviving file before
    // recovering — recovery must reject, truncate, or fall back, and
    // still finish exact.
    if (rng.NextBounded(2) == 0) {
      auto files = storage.ListFiles();
      ASSERT_TRUE(files.ok()) << label;
      if (!files->empty()) {
        std::string* bytes = storage.MutableFile(
            (*files)[rng.NextBounded(files->size())]);
        if (bytes != nullptr) Mutate(&rng, bytes);
      }
    }

    auto recovered = RunDurableOnce(config, spec, seed, recovering);
    ASSERT_TRUE(recovered.ok())
        << label << ": " << recovered.status().ToString();
    ASSERT_EQ(ReportDifference(*recovered, *baseline), "") << label;
  }
}

}  // namespace
}  // namespace pullmon
