#include "recovery/recovery_codec.h"

#include <bit>
#include <cstring>

#include "trace/page_codec.h"

namespace pullmon {

namespace {

constexpr char kSnapshotMagic[4] = {'P', 'M', 'S', 'N'};
constexpr std::uint64_t kSnapshotRecordType = 0x51;

std::uint64_t ZigzagEncode(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

std::int64_t ZigzagDecode(std::uint64_t value) {
  return static_cast<std::int64_t>(value >> 1) ^
         -static_cast<std::int64_t>(value & 1);
}

}  // namespace

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

void AppendSigned(std::int64_t value, std::string* out) {
  AppendVarint(ZigzagEncode(value), out);
}

void AppendFixed32(std::uint32_t value, std::string* out) {
  char buf[4];
  for (int i = 0; i < 4; ++i) {
    buf[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  out->append(buf, sizeof(buf));
}

void AppendFixed64(std::uint64_t value, std::string* out) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  out->append(buf, sizeof(buf));
}

void AppendDouble(double value, std::string* out) {
  AppendFixed64(std::bit_cast<std::uint64_t>(value), out);
}

void AppendLengthPrefixed(std::string_view bytes, std::string* out) {
  AppendVarint(bytes.size(), out);
  out->append(bytes.data(), bytes.size());
}

Status ByteReader::ReadVarint(std::uint64_t* value) {
  const char* next = DecodeVarint(p_, end_, value);
  if (next == nullptr) return Status::ParseError("truncated varint");
  p_ = next;
  return Status::OK();
}

Status ByteReader::ReadSigned(std::int64_t* value) {
  std::uint64_t raw = 0;
  PULLMON_RETURN_NOT_OK(ReadVarint(&raw));
  *value = ZigzagDecode(raw);
  return Status::OK();
}

Status ByteReader::ReadFixed32(std::uint32_t* value) {
  if (remaining() < 4) return Status::ParseError("truncated fixed32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p_[i]))
         << (8 * i);
  }
  p_ += 4;
  *value = v;
  return Status::OK();
}

Status ByteReader::ReadFixed64(std::uint64_t* value) {
  if (remaining() < 8) return Status::ParseError("truncated fixed64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p_[i]))
         << (8 * i);
  }
  p_ += 8;
  *value = v;
  return Status::OK();
}

Status ByteReader::ReadDouble(double* value) {
  std::uint64_t bits = 0;
  PULLMON_RETURN_NOT_OK(ReadFixed64(&bits));
  *value = std::bit_cast<double>(bits);
  return Status::OK();
}

Status ByteReader::ReadString(std::string* value) {
  std::uint64_t size = 0;
  PULLMON_RETURN_NOT_OK(ReadVarint(&size));
  if (size > remaining()) return Status::ParseError("truncated string");
  value->assign(p_, static_cast<std::size_t>(size));
  p_ += size;
  return Status::OK();
}

Status ByteReader::ReadByte(std::uint8_t* value) {
  if (remaining() < 1) return Status::ParseError("truncated byte");
  *value = static_cast<std::uint8_t>(*p_++);
  return Status::OK();
}

// ---------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------

void CloseRecord(std::uint64_t type, std::size_t frame_start,
                 std::string* out) {
  const std::size_t payload_size =
      out->size() - frame_start - kMaxRecordHeaderBytes;
  std::string header;  // two short varints: fits the small-string buffer
  AppendVarint(type, &header);
  AppendVarint(payload_size, &header);
  char* frame = out->data() + frame_start;
  std::memmove(frame + header.size(), frame + kMaxRecordHeaderBytes,
               payload_size);
  std::memcpy(frame, header.data(), header.size());
  out->resize(frame_start + header.size() + payload_size);
  const std::uint32_t checksum = PageChecksum(
      std::string_view(out->data() + frame_start, out->size() - frame_start));
  AppendFixed32(checksum, out);
}

void AppendRecord(std::uint64_t type, std::string_view payload,
                  std::string* out) {
  const std::size_t frame_start = out->size();
  out->append(kMaxRecordHeaderBytes, '\0');
  out->append(payload.data(), payload.size());
  CloseRecord(type, frame_start, out);
}

Result<RecordView> DecodeRecord(std::string_view bytes) {
  const char* begin = bytes.data();
  const char* end = begin + bytes.size();
  std::uint64_t type = 0;
  const char* p = DecodeVarint(begin, end, &type);
  if (p == nullptr) return Status::ParseError("truncated record type");
  std::uint64_t payload_size = 0;
  p = DecodeVarint(p, end, &payload_size);
  if (p == nullptr) return Status::ParseError("truncated record size");
  const std::size_t body = static_cast<std::size_t>(p - begin);
  if (payload_size > static_cast<std::size_t>(end - p) ||
      static_cast<std::size_t>(end - p) - payload_size < 4) {
    return Status::ParseError("truncated record payload");
  }
  const std::size_t checked_bytes =
      body + static_cast<std::size_t>(payload_size);
  ByteReader tail(
      std::string_view(begin + checked_bytes, 4));
  std::uint32_t stored = 0;
  PULLMON_RETURN_NOT_OK(tail.ReadFixed32(&stored));
  const std::uint32_t computed =
      PageChecksum(std::string_view(begin, checked_bytes));
  if (stored != computed) {
    return Status::ParseError("record checksum mismatch");
  }
  RecordView view;
  view.type = type;
  view.payload = std::string_view(begin + body,
                                  static_cast<std::size_t>(payload_size));
  view.record_bytes = checked_bytes + 4;
  return view;
}

// ---------------------------------------------------------------------
// Field lists of the snapshot payload (recovery_codec.h)
// ---------------------------------------------------------------------

template <typename C, Persisted<ProbeStats> S>
void Fields(C& c, S& s) {
  c(kVarint, s.probes_used);
  c(kVarint, s.probes_failed);
  c(kVarint, s.retries_issued);
  c(kVarint, s.retry_probes_spent);
  c(kVarint, s.candidates_scored);
  c(kVarint, s.max_concurrent_candidates);
  c(kVarint, s.t_intervals_lost_to_faults);
}

template <typename C, Persisted<ChurnStats> S>
void Fields(C& c, S& s) {
  c(kVarint, s.churn_submitted);
  c(kVarint, s.churn_cancelled);
  c(kVarint, s.churn_edited);
  c(kVarint, s.churn_unregistered_profiles);
  c(kVarint, s.orphaned_probes);
}

template <typename C, Persisted<HealthStats> S>
void Fields(C& c, S& s) {
  c(kVarint, s.circuits_opened);
  c(kVarint, s.circuits_reopened);
  c(kVarint, s.probation_probes);
  c(kVarint, s.probation_successes);
  c(kVarint, s.probes_suppressed);
  c(kVarint, s.budget_reclaimed);
  c(kVarint, s.open_chronons_total);
}

template <typename C, Persisted<FaultStats> S>
void Fields(C& c, S& s) {
  c(kVarint, s.probes_seen);
  c(kVarint, s.timeouts);
  c(kVarint, s.server_errors);
  c(kVarint, s.truncations);
  c(kVarint, s.corruptions);
  c(kVarint, s.storms_started);
  c(kVarint, s.etag_invalidations);
  c(kVarint, s.outage_probes);
  c(kVarint, s.outages_entered);
  c(kVarint, s.outage_chronons);
  c(kDouble, s.latency_total);
  c(kDouble, s.latency_max);
}

template <typename C, Persisted<HealthImage> H>
void Fields(C& c, H& h) {
  c(kByte, h.state);
  c(kSigned, h.consecutive_failures);
  c(kDouble, h.ewma_failure);
  c(kSigned, h.cooldown);
  c(kSigned, h.open_until);
  c(kVarint, h.open_chronons);
  c(kSigned, h.open_list);
  c(kVarint, h.suppressed_this_chronon);
  c(kStruct, h.stats);
}

template <typename C, Persisted<MonitorSubmissionImage> S>
void Fields(C& c, S& sub) {
  c(kSigned, sub.profile);
  c(kByte, sub.ei_captured);
  c(kSigned, sub.num_expired);
  c.Bits(sub.cancelled, sub.fault_touched, sub.failed, sub.completed,
         sub.selected);
}

template <typename C, Persisted<MonitorImage> M>
void Fields(C& c, M& m) {
  c(kVarint, m.now);
  c(kString, m.profile_names);
  c(kByte, m.profile_unregistered);
  c(kStruct, m.submissions);
  c(kSigned, m.probes_by_chronon);
  c(kStruct, m.probe_stats);
  c(kStruct, m.churn_stats);
  c(kStruct, m.health);
}

template <typename C, Persisted<SubmissionOrigin> O>
void Fields(C& c, O& origin) {
  c(kByte, origin.edit);
  c(kVarint, origin.index);
}

template <typename C, Persisted<FaultPlanImage> F>
void Fields(C& c, F& f) {
  c(kFixed64, f.stream_states);
  c(kByte, f.stream_ready);
  c(kSigned, f.storm_left);
  c(kFixed64, f.outage_stream_states);
  c(kByte, f.outage_stream_ready);
  c(kByte, f.outage_dark);
  c(kSigned, f.outage_eval_from);
  c(kSigned, f.now);
  c(kStruct, f.stats);
}

template <typename C, Persisted<ParseCacheEntryImage> E>
void Fields(C& c, E& entry) {
  c(kByte, entry.valid);
  c(kString, entry.etag);
  c(kFixed64, entry.body_hash);
  c(kVarint, entry.body_size);
}

template <typename C, Persisted<ParseCacheStats> S>
void Fields(C& c, S& s) {
  c(kVarint, s.parse_cache_hits);
  c(kVarint, s.parse_cache_misses);
  c(kVarint, s.parse_cache_invalidations);
  c(kVarint, s.parse_cache_bytes_saved);
}

template <typename C, Persisted<ParseCacheImage> P>
void Fields(C& c, P& cache) {
  c(kStruct, cache.entries);
  c(kStruct, cache.stats);
}

template <typename C, Persisted<PullSessionImage> S>
void Fields(C& c, S& s) {
  c(kString, s.etags);
  c(kStruct, s.fault_plan);
  c(kStruct, s.parse_cache);
}

template <typename C, Persisted<ProxySnapshot> S>
void Fields(C& c, S& s) {
  c(kFixed64, s.fingerprint);
  c(kVarint, s.chronon);
  c(kStruct, s.monitor);
  c(kStruct, s.origins);
  c(kStruct, s.session);
  // The LiveReportCounters base.
  c(kVarint, s.feeds_fetched);
  c(kVarint, s.not_modified);
  c(kVarint, s.feed_bytes);
  c(kVarint, s.items_parsed);
  c(kVarint, s.parse_failures);
  c(kVarint, s.notifications_delivered);
  c(kVarint, s.churn_rejected_ops);
}

// ---------------------------------------------------------------------
// Snapshot file
// ---------------------------------------------------------------------

std::string EncodeSnapshot(const ProxySnapshot& snapshot) {
  std::string out;
  // Submissions dominate the payload; one generous reservation keeps
  // the encode pass realloc-free.
  out.reserve(4096 + snapshot.monitor.submissions.size() * 48 +
              snapshot.monitor.probes_by_chronon.size() * 16);
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  AppendVarint(kSnapshotVersion, &out);
  AppendRecordField(kSnapshotRecordType, kStruct, snapshot, &out);
  return out;
}

Result<ProxySnapshot> DecodeSnapshot(std::string_view bytes) {
  if (bytes.size() < sizeof(kSnapshotMagic) ||
      std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
          0) {
    return Status::ParseError("snapshot magic mismatch");
  }
  const char* p = bytes.data() + sizeof(kSnapshotMagic);
  const char* end = bytes.data() + bytes.size();
  std::uint64_t version = 0;
  p = DecodeVarint(p, end, &version);
  if (p == nullptr) return Status::ParseError("truncated snapshot version");
  if (version != kSnapshotVersion) {
    return Status::ParseError("unsupported snapshot version");
  }
  PULLMON_ASSIGN_OR_RETURN(
      RecordView record,
      DecodeRecord(std::string_view(p, static_cast<std::size_t>(end - p))));
  if (record.type != kSnapshotRecordType) {
    return Status::ParseError("unexpected snapshot record type");
  }
  if (record.record_bytes != static_cast<std::size_t>(end - p)) {
    return Status::ParseError("trailing bytes after snapshot record");
  }

  ProxySnapshot snapshot;
  PULLMON_RETURN_NOT_OK(DecodeField(kStruct, record.payload, &snapshot));
  // The runner resumes its loop at `chronon` and the monitor at `now`;
  // a snapshot on which they differ cannot be resumed consistently.
  if (snapshot.chronon != snapshot.monitor.now) {
    return Status::ParseError("snapshot chronon differs from the monitor's");
  }
  return snapshot;
}

}  // namespace pullmon
