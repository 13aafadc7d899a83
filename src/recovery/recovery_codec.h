#ifndef PULLMON_RECOVERY_RECOVERY_CODEC_H_
#define PULLMON_RECOVERY_RECOVERY_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/dynamic_monitor.h"
#include "sim/proxy.h"
#include "util/status.h"

namespace pullmon {

/// Serialization of resumable proxy state (DESIGN.md section 15). The
/// codec reuses the trace page codec's discipline: LEB128 varints,
/// length-prefixed strings, and FNV-1a-32 checksums, with signed values
/// zigzag-encoded and raw 64-bit material (rng states, hashes, doubles)
/// stored as fixed little-endian words. Decoding never trusts the
/// input: truncated, overlong, or checksum-mangled bytes come back as a
/// Status, never a crash or a silent replay (fuzzed under asan, and the
/// recovery differential suite proves every single-bit flip detected).

// --- Write primitives (varints come from trace/page_codec.h). ---------

/// Appends `value` zigzag-mapped as a varint (small magnitudes of
/// either sign stay short).
void AppendSigned(std::int64_t value, std::string* out);

/// Appends `value` as 4 little-endian bytes.
void AppendFixed32(std::uint32_t value, std::string* out);

/// Appends `value` as 8 little-endian bytes.
void AppendFixed64(std::uint64_t value, std::string* out);

/// Appends the IEEE-754 bits of `value` as a fixed64.
void AppendDouble(double value, std::string* out);

/// Appends varint(size) + the raw bytes.
void AppendLengthPrefixed(std::string_view bytes, std::string* out);

// --- Read cursor. ------------------------------------------------------

/// Bounds-checked cursor over an encoded buffer; every Read* fails with
/// ParseError instead of reading past the end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  Status ReadVarint(std::uint64_t* value);
  Status ReadSigned(std::int64_t* value);
  Status ReadFixed32(std::uint32_t* value);
  Status ReadFixed64(std::uint64_t* value);
  Status ReadDouble(double* value);
  Status ReadString(std::string* value);
  Status ReadByte(std::uint8_t* value);

  std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - p_);
  }
  bool AtEnd() const { return p_ == end_; }

 private:
  const char* p_;
  const char* end_;
};

// --- Record framing shared by the snapshot file and the WAL. -----------

/// One decoded record frame: varint type | varint payload size |
/// payload | fixed32 FNV-1a checksum over everything before it.
struct RecordView {
  std::uint64_t type = 0;
  std::string_view payload;
  /// Total encoded size of the frame (cursor advance for the caller).
  std::size_t record_bytes = 0;
};

/// Appends one framed record to `out`.
void AppendRecord(std::uint64_t type, std::string_view payload,
                  std::string* out);

/// Decodes the record starting at bytes[0]. ParseError on truncation,
/// overlong varints, or a checksum mismatch — any torn or bit-flipped
/// frame is detected here, before its payload is ever interpreted.
Result<RecordView> DecodeRecord(std::string_view bytes);

// --- The proxy snapshot. ------------------------------------------------

/// Everything a resumed churn run needs at a chronon boundary that is
/// not re-derivable from (config, spec, seed): the monitor image, the
/// pull-session image, and the report counters the probe path mutates
/// live. The problem instance, trace, profiles, churn workload, policy,
/// and feed-network position are deliberately absent — they are pure
/// functions of the run configuration (DESIGN.md section 15 lists the
/// full argument).
struct ProxySnapshot {
  /// Fingerprint of (config, spec, seed); Restore under a different
  /// configuration is refused instead of silently diverging.
  std::uint64_t fingerprint = 0;
  /// The chronon the snapshot was taken at (== monitor.now).
  Chronon chronon = 0;
  MonitorImage monitor;
  PullSessionImage session;
  // Report counters owned by the probe path / runner loop (the rest of
  // ProxyRunReport is derived from component state at the end of the
  // run).
  std::size_t feeds_fetched = 0;
  std::size_t not_modified = 0;
  std::size_t feed_bytes = 0;
  std::size_t items_parsed = 0;
  std::size_t parse_failures = 0;
  std::size_t corrupt_bodies = 0;
  std::size_t timeouts = 0;
  std::size_t server_errors = 0;
  std::size_t outage_probes = 0;
  std::size_t notifications_delivered = 0;
  std::size_t churn_rejected_ops = 0;
};

/// Serializes a snapshot into a self-validating file: 4-byte magic,
/// varint format version, then one framed record holding the payload.
/// The payload ends with an optional section — the shard telemetry of a
/// sharded monitor — absent for the serial engine.
std::string EncodeSnapshot(const ProxySnapshot& snapshot);

/// Parses and validates a snapshot file (magic, version, checksum,
/// full payload decode). Any corruption is a ParseError.
Result<ProxySnapshot> DecodeSnapshot(std::string_view bytes);

/// Current snapshot format version.
inline constexpr std::uint64_t kSnapshotVersion = 1;

}  // namespace pullmon

#endif  // PULLMON_RECOVERY_RECOVERY_CODEC_H_
