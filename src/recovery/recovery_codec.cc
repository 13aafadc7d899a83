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

void AppendRecord(std::uint64_t type, std::string_view payload,
                  std::string* out) {
  // Snapshot payloads run to hundreds of kilobytes; one reservation up
  // front keeps the append + checksum pass out of the allocator. WAL
  // payloads are a handful of bytes logged tens of thousands of times
  // per epoch, so skip the call for them.
  if (payload.size() >= 4096) {
    out->reserve(out->size() + payload.size() + 24);
  }
  const std::size_t frame_start = out->size();
  AppendVarint(type, out);
  AppendVarint(payload.size(), out);
  out->append(payload.data(), payload.size());
  const std::uint32_t checksum = PageChecksum(
      std::string_view(out->data() + frame_start, out->size() - frame_start));
  AppendFixed32(checksum, out);
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
// Snapshot payload pieces
// ---------------------------------------------------------------------

namespace {

// A decoded element count cannot exceed the bytes left to decode from
// (every element costs at least one byte), which bounds allocations on
// adversarial input before the data is even touched.
Status ReadCount(ByteReader* r, std::size_t* count) {
  std::uint64_t raw = 0;
  PULLMON_RETURN_NOT_OK(r->ReadVarint(&raw));
  if (raw > r->remaining()) {
    return Status::ParseError("element count exceeds remaining bytes");
  }
  *count = static_cast<std::size_t>(raw);
  return Status::OK();
}

void AppendByteVec(const std::vector<std::uint8_t>& v, std::string* out) {
  AppendVarint(v.size(), out);
  out->append(reinterpret_cast<const char*>(v.data()), v.size());
}

Status ReadByteVec(ByteReader* r, std::vector<std::uint8_t>* v) {
  std::size_t count = 0;
  PULLMON_RETURN_NOT_OK(ReadCount(r, &count));
  v->resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    PULLMON_RETURN_NOT_OK(r->ReadByte(&(*v)[i]));
  }
  return Status::OK();
}

template <typename T>
void AppendSignedVec(const std::vector<T>& v, std::string* out) {
  AppendVarint(v.size(), out);
  for (T value : v) AppendSigned(static_cast<std::int64_t>(value), out);
}

template <typename T>
Status ReadSignedVec(ByteReader* r, std::vector<T>* v) {
  std::size_t count = 0;
  PULLMON_RETURN_NOT_OK(ReadCount(r, &count));
  v->resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::int64_t value = 0;
    PULLMON_RETURN_NOT_OK(r->ReadSigned(&value));
    (*v)[i] = static_cast<T>(value);
  }
  return Status::OK();
}

void AppendSizeVec(const std::vector<std::size_t>& v, std::string* out) {
  AppendVarint(v.size(), out);
  for (std::size_t value : v) AppendVarint(value, out);
}

Status ReadSizeVec(ByteReader* r, std::vector<std::size_t>* v) {
  std::size_t count = 0;
  PULLMON_RETURN_NOT_OK(ReadCount(r, &count));
  v->resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t value = 0;
    PULLMON_RETURN_NOT_OK(r->ReadVarint(&value));
    (*v)[i] = static_cast<std::size_t>(value);
  }
  return Status::OK();
}

void AppendDoubleVec(const std::vector<double>& v, std::string* out) {
  AppendVarint(v.size(), out);
  for (double value : v) AppendDouble(value, out);
}

Status ReadDoubleVec(ByteReader* r, std::vector<double>* v) {
  std::size_t count = 0;
  PULLMON_RETURN_NOT_OK(ReadCount(r, &count));
  v->resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    PULLMON_RETURN_NOT_OK(r->ReadDouble(&(*v)[i]));
  }
  return Status::OK();
}

void AppendRngStateVec(const std::vector<std::array<std::uint64_t, 4>>& v,
                       std::string* out) {
  AppendVarint(v.size(), out);
  for (const auto& state : v) {
    for (std::uint64_t word : state) AppendFixed64(word, out);
  }
}

Status ReadRngStateVec(ByteReader* r,
                       std::vector<std::array<std::uint64_t, 4>>* v) {
  std::size_t count = 0;
  PULLMON_RETURN_NOT_OK(ReadCount(r, &count));
  v->resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t w = 0; w < 4; ++w) {
      PULLMON_RETURN_NOT_OK(r->ReadFixed64(&(*v)[i][w]));
    }
  }
  return Status::OK();
}

void AppendStringVec(const std::vector<std::string>& v, std::string* out) {
  AppendVarint(v.size(), out);
  for (const std::string& s : v) AppendLengthPrefixed(s, out);
}

Status ReadStringVec(ByteReader* r, std::vector<std::string>* v) {
  std::size_t count = 0;
  PULLMON_RETURN_NOT_OK(ReadCount(r, &count));
  v->resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    PULLMON_RETURN_NOT_OK(r->ReadString(&(*v)[i]));
  }
  return Status::OK();
}

// --- T-intervals. -------------------------------------------------------

void AppendTInterval(const TInterval& t, std::string* out) {
  AppendVarint(t.eis().size(), out);
  for (const ExecutionInterval& ei : t.eis()) {
    AppendSigned(ei.resource, out);
    AppendSigned(ei.start, out);
    AppendSigned(ei.finish, out);
  }
  AppendDouble(t.weight(), out);
  // required() (not the raw field) is stored: the clamped query value is
  // what selection semantics depend on, and round-tripping it through
  // set_required is behaviorally equivalent.
  AppendVarint(t.required(), out);
}

Status ReadTInterval(ByteReader* r, TInterval* t) {
  std::size_t count = 0;
  PULLMON_RETURN_NOT_OK(ReadCount(r, &count));
  std::vector<ExecutionInterval> eis;
  eis.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::int64_t resource = 0, start = 0, finish = 0;
    PULLMON_RETURN_NOT_OK(r->ReadSigned(&resource));
    PULLMON_RETURN_NOT_OK(r->ReadSigned(&start));
    PULLMON_RETURN_NOT_OK(r->ReadSigned(&finish));
    eis.emplace_back(static_cast<ResourceId>(resource),
                     static_cast<Chronon>(start),
                     static_cast<Chronon>(finish));
  }
  *t = TInterval(std::move(eis));
  double weight = 1.0;
  PULLMON_RETURN_NOT_OK(r->ReadDouble(&weight));
  t->set_weight(weight);
  std::uint64_t required = 0;
  PULLMON_RETURN_NOT_OK(r->ReadVarint(&required));
  t->set_required(static_cast<std::size_t>(required));
  return Status::OK();
}

// --- Stats blocks. --------------------------------------------------------

void AppendMonitorStats(const MonitorStats& s, std::string* out) {
  AppendVarint(s.probes_used, out);
  AppendVarint(s.probes_failed, out);
  AppendVarint(s.retries_issued, out);
  AppendVarint(s.retry_probes_spent, out);
  AppendVarint(s.candidates_scored, out);
  AppendVarint(s.max_concurrent_candidates, out);
  AppendVarint(s.t_intervals_lost_to_faults, out);
  AppendVarint(s.submitted, out);
  AppendVarint(s.cancelled, out);
  AppendVarint(s.edited, out);
  AppendVarint(s.unregistered_profiles, out);
  AppendVarint(s.orphaned_probes, out);
}

Status ReadMonitorStats(ByteReader* r, MonitorStats* s) {
  std::uint64_t v[12];
  for (auto& value : v) PULLMON_RETURN_NOT_OK(r->ReadVarint(&value));
  s->probes_used = static_cast<std::size_t>(v[0]);
  s->probes_failed = static_cast<std::size_t>(v[1]);
  s->retries_issued = static_cast<std::size_t>(v[2]);
  s->retry_probes_spent = static_cast<std::size_t>(v[3]);
  s->candidates_scored = static_cast<std::size_t>(v[4]);
  s->max_concurrent_candidates = static_cast<std::size_t>(v[5]);
  s->t_intervals_lost_to_faults = static_cast<std::size_t>(v[6]);
  s->submitted = static_cast<std::size_t>(v[7]);
  s->cancelled = static_cast<std::size_t>(v[8]);
  s->edited = static_cast<std::size_t>(v[9]);
  s->unregistered_profiles = static_cast<std::size_t>(v[10]);
  s->orphaned_probes = static_cast<std::size_t>(v[11]);
  return Status::OK();
}

void AppendHealthStats(const HealthStats& s, std::string* out) {
  AppendVarint(s.circuits_opened, out);
  AppendVarint(s.circuits_reopened, out);
  AppendVarint(s.probation_probes, out);
  AppendVarint(s.probation_successes, out);
  AppendVarint(s.probes_suppressed, out);
  AppendVarint(s.budget_reclaimed, out);
  AppendVarint(s.open_chronons_total, out);
}

Status ReadHealthStats(ByteReader* r, HealthStats* s) {
  std::uint64_t v[7];
  for (auto& value : v) PULLMON_RETURN_NOT_OK(r->ReadVarint(&value));
  s->circuits_opened = static_cast<std::size_t>(v[0]);
  s->circuits_reopened = static_cast<std::size_t>(v[1]);
  s->probation_probes = static_cast<std::size_t>(v[2]);
  s->probation_successes = static_cast<std::size_t>(v[3]);
  s->probes_suppressed = static_cast<std::size_t>(v[4]);
  s->budget_reclaimed = static_cast<std::size_t>(v[5]);
  s->open_chronons_total = static_cast<std::size_t>(v[6]);
  return Status::OK();
}

void AppendFaultStats(const FaultStats& s, std::string* out) {
  AppendVarint(s.probes_seen, out);
  AppendVarint(s.timeouts, out);
  AppendVarint(s.server_errors, out);
  AppendVarint(s.truncations, out);
  AppendVarint(s.corruptions, out);
  AppendVarint(s.storms_started, out);
  AppendVarint(s.etag_invalidations, out);
  AppendVarint(s.outage_probes, out);
  AppendVarint(s.outages_entered, out);
  AppendVarint(s.outage_chronons, out);
  AppendDouble(s.latency_total, out);
  AppendDouble(s.latency_max, out);
}

Status ReadFaultStats(ByteReader* r, FaultStats* s) {
  std::uint64_t v[10];
  for (auto& value : v) PULLMON_RETURN_NOT_OK(r->ReadVarint(&value));
  s->probes_seen = static_cast<std::size_t>(v[0]);
  s->timeouts = static_cast<std::size_t>(v[1]);
  s->server_errors = static_cast<std::size_t>(v[2]);
  s->truncations = static_cast<std::size_t>(v[3]);
  s->corruptions = static_cast<std::size_t>(v[4]);
  s->storms_started = static_cast<std::size_t>(v[5]);
  s->etag_invalidations = static_cast<std::size_t>(v[6]);
  s->outage_probes = static_cast<std::size_t>(v[7]);
  s->outages_entered = static_cast<std::size_t>(v[8]);
  s->outage_chronons = static_cast<std::size_t>(v[9]);
  PULLMON_RETURN_NOT_OK(r->ReadDouble(&s->latency_total));
  PULLMON_RETURN_NOT_OK(r->ReadDouble(&s->latency_max));
  return Status::OK();
}

// --- Component images. -----------------------------------------------------

void AppendShardStats(const ShardRunStats& s, std::string* out) {
  AppendVarint(static_cast<std::uint64_t>(s.shard_count), out);
  AppendSizeVec(s.candidates_scored, out);
  AppendSizeVec(s.probes_executed, out);
  AppendVarint(s.merge_entries, out);
}

Status ReadShardStats(ByteReader* r, ShardRunStats* s) {
  std::size_t shard_count = 0;
  PULLMON_RETURN_NOT_OK(ReadCount(r, &shard_count));
  s->shard_count = static_cast<int>(shard_count);
  PULLMON_RETURN_NOT_OK(ReadSizeVec(r, &s->candidates_scored));
  PULLMON_RETURN_NOT_OK(ReadSizeVec(r, &s->probes_executed));
  std::uint64_t merge_entries = 0;
  PULLMON_RETURN_NOT_OK(r->ReadVarint(&merge_entries));
  s->merge_entries = static_cast<std::size_t>(merge_entries);
  return Status::OK();
}

void AppendHealthImage(const HealthImage& h, std::string* out) {
  AppendByteVec(h.state, out);
  AppendSignedVec(h.consecutive_failures, out);
  AppendDoubleVec(h.ewma_failure, out);
  AppendSignedVec(h.cooldown, out);
  AppendSignedVec(h.open_until, out);
  AppendSizeVec(h.open_chronons, out);
  AppendSignedVec(h.open_list, out);
  AppendVarint(h.suppressed_this_chronon, out);
  AppendHealthStats(h.stats, out);
}

Status ReadHealthImage(ByteReader* r, HealthImage* h) {
  PULLMON_RETURN_NOT_OK(ReadByteVec(r, &h->state));
  PULLMON_RETURN_NOT_OK(ReadSignedVec(r, &h->consecutive_failures));
  PULLMON_RETURN_NOT_OK(ReadDoubleVec(r, &h->ewma_failure));
  PULLMON_RETURN_NOT_OK(ReadSignedVec(r, &h->cooldown));
  PULLMON_RETURN_NOT_OK(ReadSignedVec(r, &h->open_until));
  PULLMON_RETURN_NOT_OK(ReadSizeVec(r, &h->open_chronons));
  PULLMON_RETURN_NOT_OK(ReadSignedVec(r, &h->open_list));
  std::uint64_t suppressed = 0;
  PULLMON_RETURN_NOT_OK(r->ReadVarint(&suppressed));
  h->suppressed_this_chronon = static_cast<std::size_t>(suppressed);
  return ReadHealthStats(r, &h->stats);
}

void AppendMonitorImage(const MonitorImage& m, std::string* out) {
  AppendVarint(static_cast<std::uint64_t>(m.now), out);
  AppendStringVec(m.profile_names, out);
  AppendByteVec(m.profile_unregistered, out);
  AppendVarint(m.submissions.size(), out);
  for (const MonitorSubmissionImage& sub : m.submissions) {
    AppendSigned(sub.profile, out);
    AppendTInterval(sub.definition, out);
    AppendByteVec(sub.ei_captured, out);
    AppendSigned(sub.num_expired, out);
    const std::uint8_t flags = static_cast<std::uint8_t>(
        (sub.cancelled ? 1 : 0) | (sub.fault_touched ? 2 : 0) |
        (sub.failed ? 4 : 0) | (sub.completed ? 8 : 0) |
        (sub.selected ? 16 : 0));
    out->push_back(static_cast<char>(flags));
  }
  AppendVarint(m.probes_by_chronon.size(), out);
  for (const std::vector<ResourceId>& probes : m.probes_by_chronon) {
    AppendSignedVec(probes, out);
  }
  AppendMonitorStats(m.stats, out);
  AppendHealthImage(m.health, out);
}

Status ReadMonitorImage(ByteReader* r, MonitorImage* m) {
  std::uint64_t now = 0;
  PULLMON_RETURN_NOT_OK(r->ReadVarint(&now));
  m->now = static_cast<Chronon>(now);
  PULLMON_RETURN_NOT_OK(ReadStringVec(r, &m->profile_names));
  PULLMON_RETURN_NOT_OK(ReadByteVec(r, &m->profile_unregistered));
  std::size_t num_subs = 0;
  PULLMON_RETURN_NOT_OK(ReadCount(r, &num_subs));
  m->submissions.resize(num_subs);
  for (MonitorSubmissionImage& sub : m->submissions) {
    std::int64_t profile = 0;
    PULLMON_RETURN_NOT_OK(r->ReadSigned(&profile));
    sub.profile = static_cast<ProfileId>(profile);
    PULLMON_RETURN_NOT_OK(ReadTInterval(r, &sub.definition));
    PULLMON_RETURN_NOT_OK(ReadByteVec(r, &sub.ei_captured));
    std::int64_t num_expired = 0;
    PULLMON_RETURN_NOT_OK(r->ReadSigned(&num_expired));
    sub.num_expired = static_cast<int>(num_expired);
    std::uint8_t flags = 0;
    PULLMON_RETURN_NOT_OK(r->ReadByte(&flags));
    sub.cancelled = (flags & 1) ? 1 : 0;
    sub.fault_touched = (flags & 2) ? 1 : 0;
    sub.failed = (flags & 4) ? 1 : 0;
    sub.completed = (flags & 8) ? 1 : 0;
    sub.selected = (flags & 16) ? 1 : 0;
  }
  std::size_t num_chronons = 0;
  PULLMON_RETURN_NOT_OK(ReadCount(r, &num_chronons));
  m->probes_by_chronon.resize(num_chronons);
  for (std::vector<ResourceId>& probes : m->probes_by_chronon) {
    PULLMON_RETURN_NOT_OK(ReadSignedVec(r, &probes));
  }
  PULLMON_RETURN_NOT_OK(ReadMonitorStats(r, &m->stats));
  return ReadHealthImage(r, &m->health);
}

void AppendFaultPlanImage(const FaultPlanImage& f, std::string* out) {
  AppendRngStateVec(f.stream_states, out);
  AppendByteVec(f.stream_ready, out);
  AppendSignedVec(f.storm_left, out);
  AppendRngStateVec(f.outage_stream_states, out);
  AppendByteVec(f.outage_stream_ready, out);
  AppendByteVec(f.outage_dark, out);
  AppendSignedVec(f.outage_eval_from, out);
  AppendSigned(f.now, out);
  AppendFaultStats(f.stats, out);
}

Status ReadFaultPlanImage(ByteReader* r, FaultPlanImage* f) {
  PULLMON_RETURN_NOT_OK(ReadRngStateVec(r, &f->stream_states));
  PULLMON_RETURN_NOT_OK(ReadByteVec(r, &f->stream_ready));
  PULLMON_RETURN_NOT_OK(ReadSignedVec(r, &f->storm_left));
  PULLMON_RETURN_NOT_OK(ReadRngStateVec(r, &f->outage_stream_states));
  PULLMON_RETURN_NOT_OK(ReadByteVec(r, &f->outage_stream_ready));
  PULLMON_RETURN_NOT_OK(ReadByteVec(r, &f->outage_dark));
  PULLMON_RETURN_NOT_OK(ReadSignedVec(r, &f->outage_eval_from));
  std::int64_t now = 0;
  PULLMON_RETURN_NOT_OK(r->ReadSigned(&now));
  f->now = static_cast<Chronon>(now);
  return ReadFaultStats(r, &f->stats);
}

void AppendFeedDocument(const FeedDocument& doc, std::string* out) {
  AppendLengthPrefixed(doc.title, out);
  AppendLengthPrefixed(doc.link, out);
  AppendLengthPrefixed(doc.description, out);
  AppendVarint(doc.items.size(), out);
  for (const FeedItem& item : doc.items) {
    AppendLengthPrefixed(item.guid, out);
    AppendLengthPrefixed(item.title, out);
    AppendLengthPrefixed(item.link, out);
    AppendLengthPrefixed(item.description, out);
    AppendSigned(item.published, out);
  }
}

Status ReadFeedDocument(ByteReader* r, FeedDocument* doc) {
  PULLMON_RETURN_NOT_OK(r->ReadString(&doc->title));
  PULLMON_RETURN_NOT_OK(r->ReadString(&doc->link));
  PULLMON_RETURN_NOT_OK(r->ReadString(&doc->description));
  std::size_t num_items = 0;
  PULLMON_RETURN_NOT_OK(ReadCount(r, &num_items));
  doc->items.resize(num_items);
  for (FeedItem& item : doc->items) {
    PULLMON_RETURN_NOT_OK(r->ReadString(&item.guid));
    PULLMON_RETURN_NOT_OK(r->ReadString(&item.title));
    PULLMON_RETURN_NOT_OK(r->ReadString(&item.link));
    PULLMON_RETURN_NOT_OK(r->ReadString(&item.description));
    PULLMON_RETURN_NOT_OK(r->ReadSigned(&item.published));
  }
  return Status::OK();
}

void AppendParseCacheImage(const ParseCacheImage& c, std::string* out) {
  AppendVarint(c.entries.size(), out);
  for (const ParseCacheEntryImage& entry : c.entries) {
    out->push_back(entry.valid ? 1 : 0);
    AppendLengthPrefixed(entry.etag, out);
    AppendFixed64(entry.body_hash, out);
    AppendVarint(entry.body_size, out);
    AppendFeedDocument(entry.document, out);
  }
  AppendVarint(c.stats.hits, out);
  AppendVarint(c.stats.misses, out);
  AppendVarint(c.stats.invalidations, out);
  AppendVarint(c.stats.bytes_saved, out);
}

Status ReadParseCacheImage(ByteReader* r, ParseCacheImage* c) {
  std::size_t num_entries = 0;
  PULLMON_RETURN_NOT_OK(ReadCount(r, &num_entries));
  c->entries.resize(num_entries);
  for (ParseCacheEntryImage& entry : c->entries) {
    std::uint8_t valid = 0;
    PULLMON_RETURN_NOT_OK(r->ReadByte(&valid));
    entry.valid = valid != 0;
    PULLMON_RETURN_NOT_OK(r->ReadString(&entry.etag));
    PULLMON_RETURN_NOT_OK(r->ReadFixed64(&entry.body_hash));
    std::uint64_t body_size = 0;
    PULLMON_RETURN_NOT_OK(r->ReadVarint(&body_size));
    entry.body_size = static_cast<std::size_t>(body_size);
    PULLMON_RETURN_NOT_OK(ReadFeedDocument(r, &entry.document));
  }
  std::uint64_t v[4];
  for (auto& value : v) PULLMON_RETURN_NOT_OK(r->ReadVarint(&value));
  c->stats.hits = static_cast<std::size_t>(v[0]);
  c->stats.misses = static_cast<std::size_t>(v[1]);
  c->stats.invalidations = static_cast<std::size_t>(v[2]);
  c->stats.bytes_saved = static_cast<std::size_t>(v[3]);
  return Status::OK();
}

void AppendSessionImage(const PullSessionImage& s, std::string* out) {
  AppendStringVec(s.etags, out);
  out->push_back(s.fault_plan.has_value() ? 1 : 0);
  if (s.fault_plan.has_value()) AppendFaultPlanImage(*s.fault_plan, out);
  out->push_back(s.parse_cache.has_value() ? 1 : 0);
  if (s.parse_cache.has_value()) AppendParseCacheImage(*s.parse_cache, out);
}

Status ReadSessionImage(ByteReader* r, PullSessionImage* s) {
  PULLMON_RETURN_NOT_OK(ReadStringVec(r, &s->etags));
  std::uint8_t has = 0;
  PULLMON_RETURN_NOT_OK(r->ReadByte(&has));
  if (has != 0) {
    s->fault_plan.emplace();
    PULLMON_RETURN_NOT_OK(ReadFaultPlanImage(r, &*s->fault_plan));
  } else {
    s->fault_plan.reset();
  }
  PULLMON_RETURN_NOT_OK(r->ReadByte(&has));
  if (has != 0) {
    s->parse_cache.emplace();
    PULLMON_RETURN_NOT_OK(ReadParseCacheImage(r, &*s->parse_cache));
  } else {
    s->parse_cache.reset();
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------
// Snapshot file
// ---------------------------------------------------------------------

std::string EncodeSnapshot(const ProxySnapshot& snapshot) {
  std::string payload;
  // Submissions dominate the payload (a few dozen bytes each); one
  // generous reservation keeps the encode pass realloc-free.
  payload.reserve(4096 + snapshot.monitor.submissions.size() * 48 +
                  snapshot.monitor.probes_by_chronon.size() * 16);
  AppendFixed64(snapshot.fingerprint, &payload);
  AppendVarint(static_cast<std::uint64_t>(snapshot.chronon), &payload);
  AppendMonitorImage(snapshot.monitor, &payload);
  AppendSessionImage(snapshot.session, &payload);
  AppendVarint(snapshot.feeds_fetched, &payload);
  AppendVarint(snapshot.not_modified, &payload);
  AppendVarint(snapshot.feed_bytes, &payload);
  AppendVarint(snapshot.items_parsed, &payload);
  AppendVarint(snapshot.parse_failures, &payload);
  AppendVarint(snapshot.corrupt_bodies, &payload);
  AppendVarint(snapshot.timeouts, &payload);
  AppendVarint(snapshot.server_errors, &payload);
  AppendVarint(snapshot.outage_probes, &payload);
  AppendVarint(snapshot.notifications_delivered, &payload);
  AppendVarint(snapshot.churn_rejected_ops, &payload);
  // Optional tail: only a sharded monitor carries shard telemetry, so
  // serial snapshots keep their exact bytes.
  if (snapshot.monitor.shards.shard_count > 0) {
    AppendShardStats(snapshot.monitor.shards, &payload);
  }

  std::string out;
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  AppendVarint(kSnapshotVersion, &out);
  AppendRecord(kSnapshotRecordType, payload, &out);
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
  ByteReader r(record.payload);
  PULLMON_RETURN_NOT_OK(r.ReadFixed64(&snapshot.fingerprint));
  std::uint64_t chronon = 0;
  PULLMON_RETURN_NOT_OK(r.ReadVarint(&chronon));
  snapshot.chronon = static_cast<Chronon>(chronon);
  PULLMON_RETURN_NOT_OK(ReadMonitorImage(&r, &snapshot.monitor));
  PULLMON_RETURN_NOT_OK(ReadSessionImage(&r, &snapshot.session));
  std::uint64_t v[11];
  for (auto& value : v) PULLMON_RETURN_NOT_OK(r.ReadVarint(&value));
  snapshot.feeds_fetched = static_cast<std::size_t>(v[0]);
  snapshot.not_modified = static_cast<std::size_t>(v[1]);
  snapshot.feed_bytes = static_cast<std::size_t>(v[2]);
  snapshot.items_parsed = static_cast<std::size_t>(v[3]);
  snapshot.parse_failures = static_cast<std::size_t>(v[4]);
  snapshot.corrupt_bodies = static_cast<std::size_t>(v[5]);
  snapshot.timeouts = static_cast<std::size_t>(v[6]);
  snapshot.server_errors = static_cast<std::size_t>(v[7]);
  snapshot.outage_probes = static_cast<std::size_t>(v[8]);
  snapshot.notifications_delivered = static_cast<std::size_t>(v[9]);
  snapshot.churn_rejected_ops = static_cast<std::size_t>(v[10]);
  if (!r.AtEnd()) {
    PULLMON_RETURN_NOT_OK(ReadShardStats(&r, &snapshot.monitor.shards));
    if (snapshot.monitor.shards.shard_count < 1) {
      return Status::ParseError("empty shard telemetry in snapshot");
    }
  }
  if (!r.AtEnd()) {
    return Status::ParseError("trailing bytes in snapshot payload");
  }
  return snapshot;
}

}  // namespace pullmon
