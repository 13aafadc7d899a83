#include "recovery/wal.h"

#include <utility>

#include "recovery/recovery_codec.h"

namespace pullmon {

template <typename C, Persisted<WalChurnRecord> R>
void Fields(C& c, R& record) {
  c(kByte, record.kind);
  c(kSigned, record.profile);
  c(kSigned, record.submission);
  c(kByte, record.accepted);
}

template <typename C, Persisted<WalProbeRecord> R>
void Fields(C& c, R& record) {
  c(kSigned, record.resource);
  c(kByte, record.success);
}

WalWriter::WalWriter(StableStorage* storage, std::string name)
    : storage_(storage), name_(std::move(name)) {}

void WalWriter::LogChrononStart(Chronon chronon) {
  AppendRecordField(static_cast<std::uint64_t>(WalRecordType::kChrononStart),
                    kSigned, chronon, &buffer_);
}

void WalWriter::LogChurn(const WalChurnRecord& record) {
  AppendRecordField(static_cast<std::uint64_t>(WalRecordType::kChurnOp),
                    kStruct, record, &buffer_);
}

void WalWriter::LogProbe(const WalProbeRecord& record) {
  AppendRecordField(static_cast<std::uint64_t>(WalRecordType::kProbe),
                    kStruct, record, &buffer_);
}

Status WalWriter::CommitChronon(Chronon chronon) {
  AppendRecordField(static_cast<std::uint64_t>(WalRecordType::kChrononCommit),
                    kSigned, chronon, &buffer_);
  PULLMON_RETURN_NOT_OK(storage_->AppendFile(name_, buffer_));
  bytes_flushed_ += buffer_.size();
  buffer_.clear();
  return Status::OK();
}

Result<WalReadResult> ReadWal(std::string_view bytes) {
  WalReadResult result;
  std::size_t offset = 0;
  std::size_t records_since_commit = 0;
  // The chronon being accumulated (not yet committed).
  WalChronon pending;
  bool in_chronon = false;

  while (offset < bytes.size()) {
    auto record = DecodeRecord(bytes.substr(offset));
    if (!record.ok()) break;  // torn tail: stop at the first bad frame
    const std::uint64_t type = record->type;
    if (type < static_cast<std::uint64_t>(WalRecordType::kChrononStart) ||
        type > static_cast<std::uint64_t>(WalRecordType::kChrononCommit)) {
      break;  // unknown type: treat as tail corruption
    }
    // From here the frame is intact, so a payload that fails to decode
    // (or decodes out of range) is structural nonsense, not a torn write.
    const std::string_view payload = record->payload;
    switch (static_cast<WalRecordType>(type)) {
      case WalRecordType::kChrononStart:
        if (in_chronon) {
          return Status::ParseError(
              "WAL chronon started before the previous one committed");
        }
        pending = WalChronon{};
        PULLMON_RETURN_NOT_OK(DecodeField(kSigned, payload, &pending.chronon));
        in_chronon = true;
        break;
      case WalRecordType::kChurnOp:
        if (!in_chronon) {
          return Status::ParseError("WAL churn op outside a chronon");
        }
        PULLMON_RETURN_NOT_OK(
            DecodeField(kStruct, payload, &pending.churn.emplace_back()));
        ++records_since_commit;
        break;
      case WalRecordType::kProbe:
        if (!in_chronon) {
          return Status::ParseError("WAL probe outside a chronon");
        }
        PULLMON_RETURN_NOT_OK(
            DecodeField(kStruct, payload, &pending.probes.emplace_back()));
        ++records_since_commit;
        break;
      case WalRecordType::kChrononCommit: {
        Chronon chronon = 0;
        PULLMON_RETURN_NOT_OK(DecodeField(kSigned, payload, &chronon));
        if (!in_chronon || chronon != pending.chronon) {
          return Status::ParseError(
              "WAL commit does not match the open chronon");
        }
        result.chronons.push_back(std::move(pending));
        in_chronon = false;
        // The commit seals the group: everything up to and including
        // this record is durable prefix.
        result.valid_bytes = offset + record->record_bytes;
        result.committed_records += records_since_commit + 2;
        records_since_commit = 0;
        break;
      }
    }
    offset += record->record_bytes;
  }
  result.torn_bytes = bytes.size() - result.valid_bytes;
  return result;
}

}  // namespace pullmon
