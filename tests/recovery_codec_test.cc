// Wire-format suite of the recovery codec (DESIGN.md section 15): the
// varint edge values, the framing and primitive round-trips, snapshot
// encode/decode identity, WAL write/read under the torn-tail rule, and
// — the load-bearing robustness property — exhaustive single-bit-flip
// and every-prefix truncation detection: no corrupted snapshot or WAL
// record may ever decode, and a damaged WAL must come back as an intact
// strict prefix, never as different records.

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "recovery/checkpoint.h"
#include "recovery/crash_plan.h"
#include "recovery/recovery_codec.h"
#include "recovery/stable_storage.h"
#include "recovery/wal.h"

namespace pullmon {
namespace {

TEST(VarintTest, VarintEdgeValues) {
  for (std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{16383}, std::uint64_t{16384},
        std::numeric_limits<std::uint64_t>::max()}) {
    std::string bytes;
    AppendVarint(value, &bytes);
    std::uint64_t decoded = 0;
    const char* end = DecodeVarint(bytes.data(),
                                   bytes.data() + bytes.size(), &decoded);
    ASSERT_NE(end, nullptr) << value;
    EXPECT_EQ(end, bytes.data() + bytes.size());
    EXPECT_EQ(decoded, value);
  }
}

TEST(VarintTest, VarintRejectsTruncationAndOverlength) {
  std::string bytes;
  AppendVarint(1u << 20, &bytes);
  std::uint64_t value = 0;
  // Every strict prefix is truncated.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_EQ(DecodeVarint(bytes.data(), bytes.data() + len, &value),
              nullptr)
        << "prefix " << len;
  }
  // Eleven continuation bytes exceed the 10-byte cap.
  std::string overlong(11, static_cast<char>(0x80));
  EXPECT_EQ(DecodeVarint(overlong.data(),
                         overlong.data() + overlong.size(), &value),
            nullptr);
}

TEST(RecoveryCodecTest, PrimitiveRoundTrips) {
  std::string bytes;
  AppendSigned(0, &bytes);
  AppendSigned(-1, &bytes);
  AppendSigned(1, &bytes);
  AppendSigned(-123456789, &bytes);
  AppendSigned(987654321012345LL, &bytes);
  AppendFixed32(0xDEADBEEF, &bytes);
  AppendFixed64(0x0123456789ABCDEFULL, &bytes);
  AppendDouble(3.14159265358979, &bytes);
  AppendDouble(-0.0, &bytes);
  AppendLengthPrefixed("hello", &bytes);
  AppendLengthPrefixed("", &bytes);

  ByteReader reader(bytes);
  std::int64_t s = 99;
  ASSERT_TRUE(reader.ReadSigned(&s).ok());
  EXPECT_EQ(s, 0);
  ASSERT_TRUE(reader.ReadSigned(&s).ok());
  EXPECT_EQ(s, -1);
  ASSERT_TRUE(reader.ReadSigned(&s).ok());
  EXPECT_EQ(s, 1);
  ASSERT_TRUE(reader.ReadSigned(&s).ok());
  EXPECT_EQ(s, -123456789);
  ASSERT_TRUE(reader.ReadSigned(&s).ok());
  EXPECT_EQ(s, 987654321012345LL);
  std::uint32_t f32 = 0;
  ASSERT_TRUE(reader.ReadFixed32(&f32).ok());
  EXPECT_EQ(f32, 0xDEADBEEF);
  std::uint64_t f64 = 0;
  ASSERT_TRUE(reader.ReadFixed64(&f64).ok());
  EXPECT_EQ(f64, 0x0123456789ABCDEFULL);
  double d = 0.0;
  ASSERT_TRUE(reader.ReadDouble(&d).ok());
  EXPECT_DOUBLE_EQ(d, 3.14159265358979);
  ASSERT_TRUE(reader.ReadDouble(&d).ok());
  EXPECT_EQ(d, -0.0);
  EXPECT_TRUE(std::signbit(d));
  std::string text;
  ASSERT_TRUE(reader.ReadString(&text).ok());
  EXPECT_EQ(text, "hello");
  ASSERT_TRUE(reader.ReadString(&text).ok());
  EXPECT_EQ(text, "");
  EXPECT_TRUE(reader.AtEnd());

  // Reading past the end is an error, not a crash.
  EXPECT_FALSE(reader.ReadSigned(&s).ok());
  EXPECT_FALSE(reader.ReadFixed32(&f32).ok());
  EXPECT_FALSE(reader.ReadString(&text).ok());
}

TEST(RecoveryCodecTest, RecordFramingRoundTripAndBounds) {
  std::string out;
  AppendRecord(7, "payload-bytes", &out);
  const std::size_t first = out.size();
  AppendRecord(200, "", &out);

  auto r1 = DecodeRecord(out);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->type, 7u);
  EXPECT_EQ(r1->payload, "payload-bytes");
  EXPECT_EQ(r1->record_bytes, first);

  auto r2 = DecodeRecord(std::string_view(out).substr(first));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->type, 200u);
  EXPECT_EQ(r2->payload, "");

  // Every strict prefix of a single frame fails to decode.
  for (std::size_t len = 0; len < first; ++len) {
    auto torn = DecodeRecord(std::string_view(out).substr(0, len));
    EXPECT_FALSE(torn.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(RecoveryCodecTest, RecordFramingDetectsEveryBitFlip) {
  std::string out;
  AppendRecord(42, "some payload worth protecting", &out);
  for (std::size_t bit = 0; bit < out.size() * 8; ++bit) {
    std::string mutated = out;
    FlipBit(&mutated, bit);
    auto decoded = DecodeRecord(mutated);
    if (!decoded.ok()) continue;
    // A flip may only survive framing by expanding the payload-size
    // varint into bytes past the original frame — impossible here since
    // the buffer ends with the frame, so any decode success must
    // reproduce the original record exactly. Accept only that.
    EXPECT_EQ(decoded->type, 42u) << "bit " << bit;
    EXPECT_EQ(decoded->payload, "some payload worth protecting")
        << "bit " << bit;
    ADD_FAILURE() << "single-bit flip at bit " << bit
                  << " decoded as a valid record";
  }
}

/// A snapshot with every optional layer populated and non-trivial
/// values in each field family (signed, unsigned, double, rng state,
/// string, submission origin).
ProxySnapshot RichSnapshot() {
  ProxySnapshot snap;
  snap.fingerprint = 0xFEEDFACECAFEBEEFULL;
  snap.chronon = 37;

  MonitorImage& m = snap.monitor;
  m.now = 37;
  m.profile_names = {"client-a", "client-b", "client-c"};
  m.profile_unregistered = {0, 1, 0};
  for (int i = 0; i < 3; ++i) {
    MonitorSubmissionImage sub;
    sub.profile = i;
    sub.ei_captured = {1, 0};
    sub.num_expired = i;
    sub.cancelled = i == 1;
    sub.fault_touched = i == 2;
    sub.completed = i == 0;
    sub.selected = 1;
    m.submissions.push_back(sub);
  }
  snap.origins = {SubmissionOrigin{false, 0}, SubmissionOrigin{false, 4},
                  SubmissionOrigin{true, 131}};
  m.probes_by_chronon = {{0, 3}, {}, {1}, {2, 4, 5}};
  m.probe_stats.probes_used = 11;
  m.probe_stats.probes_failed = 2;
  m.probe_stats.retries_issued = 1;
  m.churn_stats.churn_submitted = 3;
  m.churn_stats.churn_cancelled = 1;
  m.churn_stats.orphaned_probes = 1;
  m.health.state = {0, 1, 2};
  m.health.consecutive_failures = {0, 4, 1};
  m.health.ewma_failure = {0.0, 0.75, 0.125};
  m.health.cooldown = {1, 8, 2};
  m.health.open_until = {-1, 44, -1};
  m.health.open_chronons = {0, 6, 0};
  m.health.open_list = {1};
  m.health.suppressed_this_chronon = 2;
  m.health.stats.circuits_opened = 1;
  m.health.stats.open_chronons_total = 6;

  PullSessionImage& s = snap.session;
  s.etags = {"\"etag-0\"", "", "\"etag-2\""};
  FaultPlanImage plan;
  plan.stream_states = {{1, 2, 3, 4}, {0, 0, 0, 0}, {5, 6, 7, 8}};
  plan.stream_ready = {1, 0, 1};
  plan.storm_left = {0, 0, 3};
  plan.outage_stream_states = {{9, 10, 11, 12}, {0, 0, 0, 0},
                               {0, 0, 0, 0}};
  plan.outage_stream_ready = {1, 0, 0};
  plan.outage_dark = {0, 0, 1};
  plan.outage_eval_from = {12, 0, 37};
  plan.now = 37;
  plan.stats.timeouts = 4;
  plan.stats.outage_probes = 2;
  s.fault_plan = plan;
  ParseCacheImage cache;
  ParseCacheEntryImage entry;
  entry.valid = true;
  entry.etag = "\"etag-0\"";
  entry.body_hash = 0xABCDEF0123456789ULL;
  entry.body_size = 512;
  cache.entries = {entry, ParseCacheEntryImage{}};
  cache.stats.parse_cache_hits = 9;
  cache.stats.parse_cache_misses = 4;
  s.parse_cache = cache;

  snap.feeds_fetched = 40;
  snap.not_modified = 12;
  snap.feed_bytes = 12345;
  snap.items_parsed = 222;
  snap.parse_failures = 3;
  snap.notifications_delivered = 7;
  snap.churn_rejected_ops = 5;
  return snap;
}

TEST(RecoveryCodecTest, SnapshotRoundTripIsIdentity) {
  const ProxySnapshot snap = RichSnapshot();
  const std::string encoded = EncodeSnapshot(snap);
  auto decoded = DecodeSnapshot(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  // Spot checks on every family of state...
  EXPECT_EQ(decoded->fingerprint, snap.fingerprint);
  EXPECT_EQ(decoded->chronon, snap.chronon);
  EXPECT_EQ(decoded->monitor.profile_names, snap.monitor.profile_names);
  ASSERT_EQ(decoded->monitor.submissions.size(), 3u);
  EXPECT_EQ(decoded->monitor.submissions[1].cancelled, 1);
  ASSERT_EQ(decoded->origins.size(), 3u);
  EXPECT_FALSE(decoded->origins[1].edit);
  EXPECT_EQ(decoded->origins[1].index, 4u);
  EXPECT_TRUE(decoded->origins[2].edit);
  EXPECT_EQ(decoded->origins[2].index, 131u);
  EXPECT_EQ(decoded->monitor.probes_by_chronon,
            snap.monitor.probes_by_chronon);
  EXPECT_EQ(decoded->monitor.health.open_list,
            snap.monitor.health.open_list);
  ASSERT_TRUE(decoded->session.fault_plan.has_value());
  EXPECT_EQ(decoded->session.fault_plan->stream_states,
            snap.session.fault_plan->stream_states);
  ASSERT_TRUE(decoded->session.parse_cache.has_value());
  ASSERT_EQ(decoded->session.parse_cache->entries.size(), 2u);
  EXPECT_EQ(decoded->session.parse_cache->entries[0].etag, "\"etag-0\"");
  EXPECT_EQ(decoded->session.parse_cache->entries[0].body_hash,
            0xABCDEF0123456789ULL);
  EXPECT_EQ(decoded->churn_rejected_ops, 5u);

  // ...and the authoritative identity: re-encoding the decoded snapshot
  // reproduces the byte stream exactly (the encoding is canonical).
  EXPECT_EQ(EncodeSnapshot(*decoded), encoded);
}

TEST(RecoveryCodecTest, FormerShardTailIsRefusedAsTrailingBytes) {
  // Snapshots of the retired sharded engine appended its telemetry after
  // the payload's last field: the shard count, per-shard scored and
  // probed counts, and the merge-entry total. The payload now ends at
  // the live counters, so a frame that still carries that section (its
  // checksum intact) is refused, never half-read.
  const std::string serial = EncodeSnapshot(RichSnapshot());
  constexpr std::size_t kHeaderBytes = 5;  // magic + varint version
  auto record = DecodeRecord(std::string_view(serial).substr(kHeaderBytes));
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  std::string payload(record->payload);
  AppendVarint(3, &payload);  // shard count
  for (std::uint64_t v : {3, 4, 0, 9}) AppendVarint(v, &payload);
  for (std::uint64_t v : {3, 1, 2, 0}) AppendVarint(v, &payload);
  AppendVarint(6, &payload);  // merge entries
  std::string tailed = serial.substr(0, kHeaderBytes);
  AppendRecord(record->type, payload, &tailed);
  ASSERT_TRUE(
      DecodeRecord(std::string_view(tailed).substr(kHeaderBytes)).ok());

  auto decoded = DecodeSnapshot(tailed);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  EXPECT_EQ(decoded.status().message(), "trailing bytes after the last field");
}

/// 64-bit FNV-1a of a byte string, for pinning encodings in a line.
uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(RecoveryCodecTest, SnapshotBytesArePinned) {
  // Golden size and digest of RichSnapshot()'s encoding in format
  // version 2. A codec change that moves one byte of it is a format
  // change: it bumps kSnapshotVersion, so that older files are refused
  // rather than misread, and re-records the golden. (Version 1 pinned
  // 574 B 0x93ccbd449105e89c; it carried definitions and cached
  // documents.)
  ProxySnapshot snap = RichSnapshot();
  const std::string serial = EncodeSnapshot(snap);
  EXPECT_EQ(serial.size(), 467u);
  EXPECT_EQ(Fnv1a64(serial), 0x43328a113afcedb9ULL);
}

TEST(RecoveryCodecTest, VersionOneSnapshotIsRefused) {
  // A version-1 file: the version-2 payload behind the old version
  // number, framed with a valid checksum. Only the number differs, and
  // the file must not load.
  const std::string v2 = EncodeSnapshot(RichSnapshot());
  constexpr std::size_t kHeaderBytes = 5;  // magic + varint version
  ASSERT_EQ(static_cast<std::uint64_t>(v2[4]), kSnapshotVersion);
  std::string v1 = v2;
  v1[4] = 1;
  auto decoded = DecodeSnapshot(v1);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  ASSERT_TRUE(DecodeSnapshot(v2).ok());
  ASSERT_TRUE(DecodeRecord(std::string_view(v1).substr(kHeaderBytes)).ok());

  // Recovery counts it as rejected and finds nothing to resume.
  MemoryStorage storage;
  ASSERT_TRUE(storage.WriteFile(SnapshotFileName(37), v1).ok());
  auto loaded = LoadNewestCheckpoint(&storage, RichSnapshot().fingerprint);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->found);
  EXPECT_EQ(loaded->snapshots_seen, 1u);
  EXPECT_EQ(loaded->snapshots_rejected, 1u);
}

std::string SignedBytes(std::int64_t value) {
  std::string bytes;
  AppendSigned(value, &bytes);
  return bytes;
}

std::string VarintBytes(std::uint64_t value) {
  std::string bytes;
  AppendVarint(value, &bytes);
  return bytes;
}

/// `encoded` re-framed, with a valid checksum, around its payload with
/// the one occurrence of `from` replaced by `to`.
std::string SpliceSnapshotPayload(const std::string& encoded,
                                  const std::string& from,
                                  const std::string& to) {
  constexpr std::size_t kHeaderBytes = 5;  // magic + varint version
  auto record = DecodeRecord(std::string_view(encoded).substr(kHeaderBytes));
  EXPECT_TRUE(record.ok()) << record.status().ToString();
  if (!record.ok()) return encoded;
  std::string payload(record->payload);
  const std::size_t at = payload.find(from);
  EXPECT_NE(at, std::string::npos);
  EXPECT_EQ(payload.find(from, at + 1), std::string::npos)
      << "ambiguous splice";
  if (at == std::string::npos) return encoded;
  payload.replace(at, from.size(), to);
  std::string out = encoded.substr(0, kHeaderBytes);
  AppendRecord(record->type, payload, &out);
  return out;
}

TEST(RecoveryCodecTest, DecoderRejectsValuesItsFieldsCannotHold) {
  // Each case stores a 32-bit field's value v as v + 2^32 in a frame
  // with a valid checksum. Cast to 32 bits that is v again, so a decoder
  // that narrows instead of checking restores the original snapshot.
  constexpr std::int64_t kWrap = std::int64_t{1} << 32;
  constexpr std::int64_t kNow = 0x1234567;
  constexpr std::int64_t kProfile = 0x2345678;
  constexpr std::int64_t kExpired = 0x3456789;
  constexpr std::int64_t kOpen = 0x4567891;
  ProxySnapshot snap = RichSnapshot();
  snap.chronon = snap.monitor.now = kNow;
  snap.monitor.submissions[0].profile = kProfile;
  snap.monitor.submissions[1].num_expired = kExpired;
  snap.monitor.health.open_list = {kOpen};
  const std::string encoded = EncodeSnapshot(snap);
  ASSERT_TRUE(DecodeSnapshot(encoded).ok());

  struct Case {
    const char* field;
    std::string from;
    std::string to;
  };
  const Case cases[] = {
      // chronon and monitor.now are adjacent; only now is widened.
      {"monitor.now", VarintBytes(kNow) + VarintBytes(kNow),
       VarintBytes(kNow) + VarintBytes(kNow + kWrap)},
      {"submission profile", SignedBytes(kProfile),
       SignedBytes(kProfile + kWrap)},
      {"submission num_expired", SignedBytes(kExpired),
       SignedBytes(kExpired + kWrap)},
      {"health open_list element", SignedBytes(kOpen),
       SignedBytes(kOpen - kWrap)},
  };
  for (const Case& c : cases) {
    const std::string spliced =
        SpliceSnapshotPayload(encoded, c.from, c.to);
    EXPECT_NE(spliced, encoded) << c.field;
    auto decoded = DecodeSnapshot(spliced);
    EXPECT_FALSE(decoded.ok()) << c.field << " narrowed into range";
  }
}

TEST(RecoveryCodecTest, DecoderRejectsAChrononOtherThanTheMonitors) {
  // The runner resumes its loop at `chronon` and the monitor at
  // `monitor.now`; a checksum-valid snapshot where they differ cannot
  // be resumed and must not load.
  ProxySnapshot snap = RichSnapshot();
  ASSERT_EQ(snap.chronon, snap.monitor.now);
  snap.chronon = snap.monitor.now - 1;
  EXPECT_FALSE(DecodeSnapshot(EncodeSnapshot(snap)).ok());
}

TEST(RecoveryCodecTest, SnapshotWithoutOptionalLayersRoundTrips) {
  ProxySnapshot snap;
  snap.fingerprint = 1;
  snap.chronon = 0;
  snap.session.etags = {"", ""};
  const std::string encoded = EncodeSnapshot(snap);
  auto decoded = DecodeSnapshot(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded->session.fault_plan.has_value());
  EXPECT_FALSE(decoded->session.parse_cache.has_value());
  EXPECT_EQ(EncodeSnapshot(*decoded), encoded);
}

TEST(RecoveryCodecTest, SnapshotDetectsEveryBitFlip) {
  const std::string encoded = EncodeSnapshot(RichSnapshot());
  for (std::size_t bit = 0; bit < encoded.size() * 8; ++bit) {
    std::string mutated = encoded;
    FlipBit(&mutated, bit);
    EXPECT_FALSE(DecodeSnapshot(mutated).ok())
        << "single-bit flip at bit " << bit << " decoded as valid";
  }
}

TEST(RecoveryCodecTest, SnapshotDetectsEveryTruncation) {
  const std::string encoded = EncodeSnapshot(RichSnapshot());
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(DecodeSnapshot(encoded.substr(0, len)).ok())
        << "truncation to " << len << " bytes decoded as valid";
  }
  // Trailing garbage is rejected too: a snapshot file is exactly one
  // record.
  EXPECT_FALSE(DecodeSnapshot(encoded + "x").ok());
}

std::vector<WalChronon> ThreeChronons() {
  std::vector<WalChronon> chronons(3);
  chronons[0].chronon = 10;
  chronons[0].churn.push_back(WalChurnRecord{3, 0, 0, 1});
  chronons[0].churn.push_back(WalChurnRecord{0, 1, 2, 0});
  chronons[0].probes.push_back(WalProbeRecord{4, 1});
  chronons[0].probes.push_back(WalProbeRecord{2, 0});
  chronons[1].chronon = 11;
  chronons[2].chronon = 12;
  chronons[2].churn.push_back(WalChurnRecord{2, 5, -1, 1});
  chronons[2].probes.push_back(WalProbeRecord{0, 1});
  return chronons;
}

std::string WriteWal(const std::vector<WalChronon>& chronons,
                     MemoryStorage* storage) {
  WalWriter writer(storage, "wal-test.pmwal");
  for (const WalChronon& c : chronons) {
    writer.LogChrononStart(c.chronon);
    for (const WalChurnRecord& op : c.churn) writer.LogChurn(op);
    for (const WalProbeRecord& probe : c.probes) writer.LogProbe(probe);
    EXPECT_TRUE(writer.CommitChronon(c.chronon).ok());
  }
  return *storage->ReadFile("wal-test.pmwal");
}

void ExpectWalChrononsEqual(const std::vector<WalChronon>& a,
                            const std::vector<WalChronon>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].chronon, b[i].chronon);
    EXPECT_EQ(a[i].churn, b[i].churn);
    EXPECT_EQ(a[i].probes, b[i].probes);
  }
}

TEST(WalTest, WriteReadRoundTrip) {
  MemoryStorage storage;
  const std::vector<WalChronon> chronons = ThreeChronons();
  const std::string bytes = WriteWal(chronons, &storage);

  auto read = ReadWal(bytes);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ExpectWalChrononsEqual(read->chronons, chronons);
  EXPECT_EQ(read->valid_bytes, bytes.size());
  EXPECT_EQ(read->torn_bytes, 0u);
  // 3 starts + 3 commits + 3 churn + 3 probes.
  EXPECT_EQ(read->committed_records, 12u);
}

TEST(WalTest, WalBytesArePinned) {
  // Golden size and digest of the log WalWriter writes for
  // ThreeChronons(), which holds all four record types and a negative
  // submission. A codec change may not move one byte of it.
  MemoryStorage storage;
  const std::string bytes = WriteWal(ThreeChronons(), &storage);
  EXPECT_EQ(bytes.size(), 96u);
  EXPECT_EQ(Fnv1a64(bytes), 0xfebaf344551f4c31ULL);
}

TEST(WalTest, EveryTruncationYieldsACommittedPrefix) {
  MemoryStorage storage;
  const std::vector<WalChronon> chronons = ThreeChronons();
  const std::string bytes = WriteWal(chronons, &storage);

  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    auto read = ReadWal(bytes.substr(0, len));
    ASSERT_TRUE(read.ok()) << "len " << len << ": "
                           << read.status().ToString();
    // The result is a prefix of the committed chronons, its valid_bytes
    // re-reads to exactly that prefix, and the tail is fully accounted.
    ASSERT_LE(read->chronons.size(), chronons.size());
    for (std::size_t i = 0; i < read->chronons.size(); ++i) {
      EXPECT_EQ(read->chronons[i].chronon, chronons[i].chronon);
      EXPECT_EQ(read->chronons[i].churn, chronons[i].churn);
      EXPECT_EQ(read->chronons[i].probes, chronons[i].probes);
    }
    EXPECT_LE(read->valid_bytes, len);
    EXPECT_EQ(read->valid_bytes + read->torn_bytes, len);
    auto reread = ReadWal(bytes.substr(0, read->valid_bytes));
    ASSERT_TRUE(reread.ok());
    EXPECT_EQ(reread->chronons.size(), read->chronons.size());
    EXPECT_EQ(reread->torn_bytes, 0u);
  }
}

TEST(WalTest, EveryBitFlipIsDetectedNeverRewritten) {
  MemoryStorage storage;
  const std::vector<WalChronon> chronons = ThreeChronons();
  const std::string bytes = WriteWal(chronons, &storage);

  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string mutated = bytes;
    FlipBit(&mutated, bit);
    auto read = ReadWal(mutated);
    if (!read.ok()) continue;  // structural rejection: fine.
    // The flip must cost the affected chronon and everything after it —
    // the surviving prefix must be the original records verbatim, never
    // a record the writer did not log.
    ASSERT_LT(read->chronons.size(), chronons.size())
        << "bit " << bit << " flipped yet all chronons decoded";
    for (std::size_t i = 0; i < read->chronons.size(); ++i) {
      EXPECT_EQ(read->chronons[i].chronon, chronons[i].chronon)
          << "bit " << bit;
      EXPECT_EQ(read->chronons[i].churn, chronons[i].churn)
          << "bit " << bit;
      EXPECT_EQ(read->chronons[i].probes, chronons[i].probes)
          << "bit " << bit;
    }
  }
}

TEST(WalTest, StructuralViolationsInsideIntactFramesAreErrors) {
  // A commit for a chronon that never started cannot come from a torn
  // write — it is a logic error and fails loudly.
  std::string bytes;
  {
    std::string payload;
    AppendSigned(5, &payload);
    AppendRecord(static_cast<std::uint64_t>(WalRecordType::kChrononCommit),
                 payload, &bytes);
  }
  EXPECT_FALSE(ReadWal(bytes).ok());

  // A probe outside any open chronon likewise.
  bytes.clear();
  {
    std::string payload;
    AppendSigned(3, &payload);
    payload.push_back(1);
    AppendRecord(static_cast<std::uint64_t>(WalRecordType::kProbe),
                 payload, &bytes);
  }
  EXPECT_FALSE(ReadWal(bytes).ok());
}

/// A log holding one committed chronon 5 whose middle record is
/// (`type`, `payload`), framed with valid checksums.
std::string WalAround(WalRecordType type, const std::string& payload,
                      const std::string& start = SignedBytes(5)) {
  std::string bytes;
  AppendRecord(static_cast<std::uint64_t>(WalRecordType::kChrononStart),
               start, &bytes);
  AppendRecord(static_cast<std::uint64_t>(type), payload, &bytes);
  AppendRecord(static_cast<std::uint64_t>(WalRecordType::kChrononCommit),
               SignedBytes(5), &bytes);
  return bytes;
}

TEST(WalTest, ReaderRejectsValuesItsFieldsCannotHold) {
  // As for snapshots: v + 2^32 in an intact frame casts back to v, so
  // a reader that narrows would replay a record the writer never wrote.
  constexpr std::int64_t kWrap = std::int64_t{1} << 32;
  const std::string yes(1, '\x01');
  const std::string edit(1, '\x01');
  auto ok = ReadWal(WalAround(WalRecordType::kProbe, SignedBytes(3) + yes));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_EQ(ok->chronons.size(), 1u);
  EXPECT_EQ(ok->chronons[0].probes,
            (std::vector<WalProbeRecord>{WalProbeRecord{3, 1}}));

  struct Case {
    const char* field;
    std::string bytes;
  };
  const Case cases[] = {
      {"probe resource",
       WalAround(WalRecordType::kProbe, SignedBytes(3 + kWrap) + yes)},
      {"churn profile",
       WalAround(WalRecordType::kChurnOp,
                 edit + SignedBytes(2 + kWrap) + SignedBytes(0) + yes)},
      {"churn submission",
       WalAround(WalRecordType::kChurnOp,
                 edit + SignedBytes(2) + SignedBytes(-1 - kWrap) + yes)},
      {"chronon start",
       WalAround(WalRecordType::kProbe, SignedBytes(3) + yes,
                 SignedBytes(5 + kWrap))},
  };
  for (const Case& c : cases) {
    auto read = ReadWal(c.bytes);
    EXPECT_FALSE(read.ok()) << c.field << " narrowed into range";
  }
}

TEST(WalTest, UncommittedChrononIsTornTail) {
  MemoryStorage storage;
  WalWriter writer(&storage, "wal.pmwal");
  writer.LogChrononStart(0);
  writer.LogProbe(WalProbeRecord{1, 1});
  ASSERT_TRUE(writer.CommitChronon(0).ok());
  const std::string committed = *storage.ReadFile("wal.pmwal");

  // A second chronon is staged and flushed, but its commit frame is
  // torn off mid-record: everything after chronon 0 is tail.
  writer.LogChrononStart(1);
  writer.LogProbe(WalProbeRecord{2, 0});
  ASSERT_TRUE(writer.CommitChronon(1).ok());
  std::string full = *storage.ReadFile("wal.pmwal");
  std::string torn = full.substr(0, full.size() - 2);

  auto read = ReadWal(torn);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->chronons.size(), 1u);
  EXPECT_EQ(read->chronons[0].chronon, 0);
  EXPECT_EQ(read->valid_bytes, committed.size());
  EXPECT_EQ(read->torn_bytes, torn.size() - committed.size());
}

TEST(CrashPlanTest, FlipBitFlipsExactlyOneBit) {
  std::string bytes = {0x00, 0x00};
  FlipBit(&bytes, 0);
  EXPECT_EQ(bytes[0], 0x01);
  FlipBit(&bytes, 0);
  EXPECT_EQ(bytes[0], 0x00);
  FlipBit(&bytes, 15);
  EXPECT_EQ(static_cast<unsigned char>(bytes[1]), 0x80);
}

TEST(CrashPlanTest, TearsTheExhaustingWriteAndKillsTheRest) {
  MemoryStorage inner;
  CrashPlan plan;
  plan.chronon = 2;
  plan.write_offset = 10;
  CrashInjectedStorage storage(&inner, plan);

  // Before the armed chronon, writes pass through untouched.
  storage.SetChronon(0);
  ASSERT_TRUE(storage.WriteFile("a", "0123456789abcdef").ok());
  EXPECT_EQ(*inner.ReadFile("a"), "0123456789abcdef");
  EXPECT_FALSE(storage.crashed());

  // At the armed chronon the allowance starts draining: 10 bytes pass,
  // the write that exhausts it is torn mid-write.
  storage.SetChronon(2);
  ASSERT_TRUE(storage.AppendFile("b", "01234567").ok());  // 8 allowed
  Status torn = storage.WriteFile("c", "XYZW");           // 2 of 4 land
  EXPECT_FALSE(torn.ok());
  EXPECT_TRUE(storage.crashed());
  EXPECT_EQ(*inner.ReadFile("b"), "01234567");
  EXPECT_EQ(*inner.ReadFile("c"), "XY");

  // The process is dead: every later operation fails, nothing mutates.
  EXPECT_FALSE(storage.WriteFile("d", "zz").ok());
  EXPECT_FALSE(storage.AppendFile("b", "zz").ok());
  EXPECT_FALSE(storage.ReadFile("a").ok());
  EXPECT_FALSE(storage.RemoveFile("a").ok());
  EXPECT_FALSE(inner.ReadFile("d").ok());
  EXPECT_EQ(*inner.ReadFile("b"), "01234567");
}

TEST(StableStorageTest, MemoryStorageContract) {
  MemoryStorage storage;
  EXPECT_FALSE(storage.ReadFile("missing").ok());
  EXPECT_FALSE(storage.TruncateFile("missing", 0).ok());
  EXPECT_TRUE(storage.RemoveFile("missing").ok());  // idempotent

  ASSERT_TRUE(storage.WriteFile("b", "bytes").ok());
  ASSERT_TRUE(storage.WriteFile("a", "first").ok());
  ASSERT_TRUE(storage.AppendFile("a", "+more").ok());
  EXPECT_EQ(*storage.ReadFile("a"), "first+more");
  ASSERT_TRUE(storage.TruncateFile("a", 5).ok());
  EXPECT_EQ(*storage.ReadFile("a"), "first");
  ASSERT_TRUE(storage.TruncateFile("a", 100).ok());  // no-op
  EXPECT_EQ(*storage.ReadFile("a"), "first");

  auto files = storage.ListFiles();
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(*files, (std::vector<std::string>{"a", "b"}));
  ASSERT_TRUE(storage.RemoveFile("a").ok());
  EXPECT_FALSE(storage.ReadFile("a").ok());
}

}  // namespace
}  // namespace pullmon
