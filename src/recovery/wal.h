#ifndef PULLMON_RECOVERY_WAL_H_
#define PULLMON_RECOVERY_WAL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/chronon.h"
#include "recovery/stable_storage.h"
#include "util/status.h"

namespace pullmon {

/// The write-ahead log appended between snapshots: per executed chronon
/// one kChrononStart record, the churn operations applied and probe
/// outcomes observed during it, and a closing kChrononCommit. Records
/// are buffered in memory and group-flushed in one storage append at
/// the commit — a crash mid-chronon therefore loses at most the
/// uncommitted chronon, which recovery re-executes deterministically.
///
/// Because the whole simulation is deterministic in (config, spec,
/// seed), the WAL is not needed to reconstruct state — recovery
/// re-executes from the newest snapshot. Its records are instead the
/// *audit trail* of the pre-crash execution: replay verifies every
/// re-executed churn op and probe outcome against them, so any
/// divergence (config drift, nondeterminism, corruption that slipped
/// past a checksum) is detected rather than silently absorbed.
enum class WalRecordType : std::uint8_t {
  kChrononStart = 1,
  kChurnOp = 2,
  kProbe = 3,
  kChrononCommit = 4,
};

/// One churn operation as applied by the runner loop. kind follows
/// ChurnEvent::Kind (0 cancel, 1 edit, 2 unregister) with 3 for an
/// arrival submit; `accepted` records whether the monitor took it.
struct WalChurnRecord {
  std::uint8_t kind = 0;
  ProfileId profile = 0;
  int submission = 0;
  std::uint8_t accepted = 0;

  bool operator==(const WalChurnRecord& other) const = default;
};

/// One probe attempt outcome.
struct WalProbeRecord {
  ResourceId resource = 0;
  std::uint8_t success = 0;

  bool operator==(const WalProbeRecord& other) const = default;
};

/// Buffered writer; one instance per WAL file. All Log* calls stage
/// into memory; CommitChronon() appends the staged records plus the
/// commit marker to storage in a single group flush.
class WalWriter {
 public:
  /// `storage` must outlive the writer.
  WalWriter(StableStorage* storage, std::string name);

  void LogChrononStart(Chronon chronon);
  void LogChurn(const WalChurnRecord& record);
  void LogProbe(const WalProbeRecord& record);

  /// Group flush: appends everything staged since the last commit plus
  /// the kChrononCommit record for `chronon`.
  Status CommitChronon(Chronon chronon);

  /// Bytes successfully appended to storage so far.
  std::size_t bytes_flushed() const { return bytes_flushed_; }

 private:
  StableStorage* storage_;
  std::string name_;
  std::string buffer_;
  std::size_t bytes_flushed_ = 0;
};

/// One committed chronon read back from a WAL.
struct WalChronon {
  Chronon chronon = 0;
  std::vector<WalChurnRecord> churn;
  std::vector<WalProbeRecord> probes;
};

/// Result of reading a WAL under the torn-tail rule: records decode in
/// order until the first invalid (truncated or checksum-failing) frame,
/// and only chronons closed by an intact kChrononCommit count. Anything
/// after the last commit — a torn group flush, a bit-flipped record and
/// everything behind it — is the torn tail.
struct WalReadResult {
  std::vector<WalChronon> chronons;
  /// Bytes of the intact committed prefix (truncate the file to this).
  std::size_t valid_bytes = 0;
  /// Bytes past the committed prefix (torn tail; 0 on a clean log).
  std::size_t torn_bytes = 0;
  /// Records in the committed prefix (including starts and commits).
  std::size_t committed_records = 0;
};

/// Decodes a WAL byte stream under the torn-tail rule. Corruption never
/// fails the read — it terminates it: the result covers the longest
/// intact committed prefix. ParseError only for structural nonsense
/// *inside* intact frames (a commit for a chronon that never started,
/// a payload that does not decode under the range rule), which no torn
/// write can produce.
Result<WalReadResult> ReadWal(std::string_view bytes);

}  // namespace pullmon

#endif  // PULLMON_RECOVERY_WAL_H_
