#ifndef PULLMON_RECOVERY_RECOVERY_CODEC_H_
#define PULLMON_RECOVERY_RECOVERY_CODEC_H_

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/dynamic_monitor.h"
#include "sim/churn.h"
#include "sim/proxy.h"
#include "util/status.h"

namespace pullmon {

/// Serialization of resumable proxy state (DESIGN.md section 15): LEB128
/// varints, length-prefixed strings, and FNV-1a-32 record checksums
/// (Fnv1a32, util/hash.h), with signed values
/// zigzag-encoded and raw 64-bit material (rng states, hashes, doubles)
/// stored as fixed little-endian words. Decoding never trusts the
/// input: truncated, overlong, or checksum-mangled bytes come back as a
/// Status, never a crash or a silent replay (fuzzed under asan, and the
/// recovery differential suite proves every single-bit flip detected).

// --- Write primitives. ------------------------------------------------

/// Appends `value` to `out` as a LEB128 varint (1-10 bytes).
void AppendVarint(std::uint64_t value, std::string* out);

/// Decodes one varint from [p, end). Returns the byte past the varint,
/// or nullptr when the input is truncated or longer than 10 bytes.
const char* DecodeVarint(const char* p, const char* end,
                         std::uint64_t* value);

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

// --- Field lists. -------------------------------------------------------
//
// Each persisted struct has exactly one field list, a function template
// in namespace pullmon found by argument-dependent lookup:
//
//   template <typename Codec, Persisted<Foo> F>
//   void Fields(Codec& c, F& foo) {
//     c(kSigned, foo.id);
//     c(kString, foo.names);  // a vector: varint count, then elements
//     c(kStruct, foo.child);  // the child's own field list
//   }
//
// FieldEncoder walks it with F = const Foo and appends; FieldDecoder
// walks it with F = Foo and reads. The list never branches on the
// direction. A std::vector field is a varint count and its elements, a
// std::array its elements alone, and a std::optional a presence byte
// and the value.
//
// Range rule: the decoder fails with ParseError on any value its field
// cannot hold (an integer outside the field type's range, a bool byte
// other than 0 or 1, a flag byte with unknown bits, an element count
// above the bytes left) instead of narrowing it.

/// Wire encoding of one field.
enum class Wire {
  kVarint,   // unsigned LEB128 (non-negative integers)
  kSigned,   // zigzag LEB128
  kFixed64,  // 8 little-endian bytes (rng states, hashes)
  kDouble,   // IEEE-754 bits as a fixed64
  kByte,     // one raw byte (uint8_t or bool)
  kString,   // varint length + raw bytes
  kStruct,   // the type's own field list
};

template <Wire W>
struct WireTag {};

inline constexpr WireTag<Wire::kVarint> kVarint{};
inline constexpr WireTag<Wire::kSigned> kSigned{};
inline constexpr WireTag<Wire::kFixed64> kFixed64{};
inline constexpr WireTag<Wire::kDouble> kDouble{};
inline constexpr WireTag<Wire::kByte> kByte{};
inline constexpr WireTag<Wire::kString> kString{};
inline constexpr WireTag<Wire::kStruct> kStruct{};

/// `S` is `T` as a field list sees it: const when encoding.
template <typename S, typename T>
concept Persisted = std::same_as<std::remove_const_t<S>, T>;

namespace codec_internal {
template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <typename T>
inline constexpr bool kIsArray = false;
template <typename T, std::size_t N>
inline constexpr bool kIsArray<std::array<T, N>> = true;
template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;
}  // namespace codec_internal

/// Appends the fields it is walked over to a byte string.
class FieldEncoder {
 public:
  explicit FieldEncoder(std::string* out) : out_(out) {}

  template <Wire W, typename T>
  void operator()(WireTag<W> wire, const T& value) {
    if constexpr (codec_internal::kIsVector<T>) {
      AppendVarint(value.size(), out_);
      for (const auto& element : value) (*this)(wire, element);
    } else if constexpr (codec_internal::kIsArray<T>) {
      for (const auto& element : value) (*this)(wire, element);
    } else if constexpr (codec_internal::kIsOptional<T>) {
      (*this)(kByte, value.has_value());
      if (value.has_value()) (*this)(wire, *value);
    } else if constexpr (W == Wire::kVarint) {
      AppendVarint(static_cast<std::uint64_t>(value), out_);
    } else if constexpr (W == Wire::kSigned) {
      AppendSigned(static_cast<std::int64_t>(value), out_);
    } else if constexpr (W == Wire::kFixed64) {
      AppendFixed64(value, out_);
    } else if constexpr (W == Wire::kDouble) {
      AppendDouble(value, out_);
    } else if constexpr (W == Wire::kByte) {
      out_->push_back(static_cast<char>(value));
    } else if constexpr (W == Wire::kString) {
      AppendLengthPrefixed(value, out_);
    } else {
      Fields(*this, value);
    }
  }

  /// A field of a class with private state, written as get(object).
  template <Wire W, typename Object, typename Get, typename Set>
  void operator()(WireTag<W> wire, const Object& object, Get get, Set) {
    (*this)(wire, std::invoke(get, object));
  }

  /// Flag fields packed into one byte, bit i for the i-th flag.
  template <typename... Flag>
  void Bits(const Flag&... flags) {
    unsigned bits = 0;
    unsigned bit = 0;
    ((bits |= (flags != 0 ? 1u : 0u) << bit++), ...);
    out_->push_back(static_cast<char>(bits));
  }

 private:
  std::string* out_;
};

/// Reads the fields it is walked over from a byte string, under the
/// range rule. The first failure sticks: later fields are skipped and
/// status() reports it.
class FieldDecoder {
 public:
  explicit FieldDecoder(std::string_view bytes) : reader_(bytes) {}

  const Status& status() const { return status_; }
  bool AtEnd() const { return reader_.AtEnd(); }

  template <Wire W, typename T>
  void operator()(WireTag<W> wire, T& value) {
    if (!status_.ok()) return;
    if constexpr (codec_internal::kIsVector<T>) {
      // Every element costs at least one byte, which bounds the
      // allocation on adversarial input before the data is touched.
      std::uint64_t count = 0;
      status_ = reader_.ReadVarint(&count);
      if (status_.ok() && count > reader_.remaining()) {
        status_ = Status::ParseError("element count exceeds remaining bytes");
      }
      if (!status_.ok()) return;
      value.resize(static_cast<std::size_t>(count));
      for (auto& element : value) (*this)(wire, element);
    } else if constexpr (codec_internal::kIsArray<T>) {
      for (auto& element : value) (*this)(wire, element);
    } else if constexpr (codec_internal::kIsOptional<T>) {
      bool present = false;
      (*this)(kByte, present);
      if (!status_.ok()) return;
      value.reset();
      if (present) (*this)(wire, value.emplace());
    } else if constexpr (W == Wire::kVarint) {
      std::uint64_t raw = 0;
      status_ = reader_.ReadVarint(&raw);
      Narrow(raw, &value);
    } else if constexpr (W == Wire::kSigned) {
      std::int64_t raw = 0;
      status_ = reader_.ReadSigned(&raw);
      Narrow(raw, &value);
    } else if constexpr (W == Wire::kFixed64) {
      status_ = reader_.ReadFixed64(&value);
    } else if constexpr (W == Wire::kDouble) {
      status_ = reader_.ReadDouble(&value);
    } else if constexpr (W == Wire::kByte) {
      std::uint8_t raw = 0;
      status_ = reader_.ReadByte(&raw);
      Narrow(raw, &value);
    } else if constexpr (W == Wire::kString) {
      status_ = reader_.ReadString(&value);
    } else {
      Fields(*this, value);
    }
  }

  /// A field of a class with private state, read then set(object, v).
  template <Wire W, typename Object, typename Get, typename Set>
  void operator()(WireTag<W> wire, Object& object, Get, Set set) {
    std::remove_cvref_t<std::invoke_result_t<Get, const Object&>> value{};
    (*this)(wire, value);
    if (status_.ok()) std::invoke(set, object, std::move(value));
  }

  template <typename... Flag>
  void Bits(Flag&... flags) {
    if (!status_.ok()) return;
    std::uint8_t bits = 0;
    status_ = reader_.ReadByte(&bits);
    if (status_.ok() && (bits >> sizeof...(Flag)) != 0) {
      status_ = Status::ParseError("unknown flag bits");
    }
    if (!status_.ok()) return;
    unsigned bit = 0;
    ((flags = static_cast<Flag>((bits >> bit++) & 1u)), ...);
  }

 private:
  template <typename Raw, typename T>
  void Narrow(Raw raw, T* value) {
    if (!status_.ok()) return;
    bool fits = false;
    if constexpr (std::is_same_v<T, bool>) {
      fits = raw == 0 || raw == 1;
    } else {
      fits = std::in_range<T>(raw);
    }
    if (!fits) {
      status_ = Status::ParseError("decoded value out of range for its field");
      return;
    }
    *value = static_cast<T>(raw);
  }

  ByteReader reader_;
  Status status_;
};

/// Appends `value` as one field of wire kind W (kStruct: its field list).
template <Wire W, typename T>
void EncodeField(WireTag<W> wire, const T& value, std::string* out) {
  FieldEncoder encoder(out);
  encoder(wire, value);
}

/// Decodes `bytes` as exactly one field of wire kind W: ParseError on a
/// failed read, a range violation, or bytes left over.
template <Wire W, typename T>
Status DecodeField(WireTag<W> wire, std::string_view bytes, T* value) {
  FieldDecoder decoder(bytes);
  decoder(wire, *value);
  PULLMON_RETURN_NOT_OK(decoder.status());
  if (!decoder.AtEnd()) {
    return Status::ParseError("trailing bytes after the last field");
  }
  return Status::OK();
}

// --- Record framing shared by the snapshot file and the WAL. -----------

/// One decoded record frame: varint type | varint payload size |
/// payload | fixed32 FNV-1a checksum over everything before it.
struct RecordView {
  std::uint64_t type = 0;
  std::string_view payload;
  /// Total encoded size of the frame (cursor advance for the caller).
  std::size_t record_bytes = 0;
};

/// Room a frame reserves for its header (type and payload-size varints,
/// at most 10 bytes each) before the payload is encoded behind it.
inline constexpr std::size_t kMaxRecordHeaderBytes = 20;

/// Frames the payload `out` holds past frame_start + kMaxRecordHeaderBytes
/// as one record of `type`, in place: writes the header into the gap the
/// caller reserved at `frame_start`, closes the gap up, and appends the
/// checksum. No second copy of the payload is made.
void CloseRecord(std::uint64_t type, std::size_t frame_start,
                 std::string* out);

/// Appends `value` (one field of wire kind W) to `out` as one framed
/// record of `type`, encoding the payload straight into `out`.
template <Wire W, typename T>
void AppendRecordField(std::uint64_t type, WireTag<W> wire, const T& value,
                       std::string* out) {
  const std::size_t frame_start = out->size();
  out->append(kMaxRecordHeaderBytes, '\0');
  EncodeField(wire, value, out);
  CloseRecord(type, frame_start, out);
}

/// Appends `payload` to `out` as one framed record of `type`.
void AppendRecord(std::uint64_t type, std::string_view payload,
                  std::string* out);

/// Decodes the record starting at bytes[0]. ParseError on truncation,
/// overlong varints, or a checksum mismatch — any torn or bit-flipped
/// frame is detected here, before its payload is ever interpreted.
Result<RecordView> DecodeRecord(std::string_view bytes);

// --- The proxy snapshot. ------------------------------------------------

/// Everything a resumed churn run needs at a chronon boundary that is
/// not re-derivable from (config, spec, seed): the monitor image, the
/// origin of each submission's definition, the pull-session image, and
/// the report counters the run bumps live (the LiveReportCounters base,
/// copied from and back into the report). The problem instance, trace,
/// profiles, churn workload, policy, and feed-network position are
/// deliberately absent — they are pure functions of the run
/// configuration — and so are the submissions' definitions and the
/// parse cache's documents, which the run re-derives from the origins
/// and the served bodies (DESIGN.md section 15 lists the full
/// argument).
struct ProxySnapshot : LiveReportCounters {
  /// Fingerprint of (config, spec, seed); Restore under a different
  /// configuration is refused instead of silently diverging.
  std::uint64_t fingerprint = 0;
  /// The chronon the snapshot was taken at (== monitor.now).
  Chronon chronon = 0;
  MonitorImage monitor;
  /// One per monitor submission, in the same order
  /// (ChurnStream::origins()).
  std::vector<SubmissionOrigin> origins;
  PullSessionImage session;
};

/// Serializes a snapshot into a self-validating file: 4-byte magic,
/// varint format version, then one framed record holding the payload.
std::string EncodeSnapshot(const ProxySnapshot& snapshot);

/// Parses and validates a snapshot file (magic, version, checksum,
/// full payload decode under the range rule, chronon == monitor.now).
/// Any corruption is a ParseError.
Result<ProxySnapshot> DecodeSnapshot(std::string_view bytes);

/// Current snapshot format version. Version 2 stores definitions and
/// parse-cache entries by reference and drops the four report counters
/// that mirrored FaultStats; version 1 files are refused (ParseError).
inline constexpr std::uint64_t kSnapshotVersion = 2;

}  // namespace pullmon

#endif  // PULLMON_RECOVERY_RECOVERY_CODEC_H_
