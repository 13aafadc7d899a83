#ifndef PULLMON_RECOVERY_STABLE_STORAGE_H_
#define PULLMON_RECOVERY_STABLE_STORAGE_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace pullmon {

/// The durability substrate of the recovery layer (DESIGN.md section
/// 15): a flat namespace of named byte files with whole-file writes
/// (snapshots), appends (the write-ahead log), and truncation (the
/// torn-tail rule). Deliberately minimal — just enough surface for the
/// checkpoint/WAL protocol, small enough that the crash-injection
/// wrapper (crash_plan.h) can interpose on every byte written.
class StableStorage {
 public:
  virtual ~StableStorage() = default;

  /// Replaces (or creates) `name` with `bytes` in one logical write.
  virtual Status WriteFile(const std::string& name,
                           std::string_view bytes) = 0;

  /// Appends `bytes` to `name`, creating it when missing.
  virtual Status AppendFile(const std::string& name,
                            std::string_view bytes) = 0;

  /// The full contents of `name`; NotFound when it does not exist.
  virtual Result<std::string> ReadFile(const std::string& name) const = 0;

  /// Shrinks `name` to its first `size` bytes (no-op if already
  /// smaller); NotFound when it does not exist.
  virtual Status TruncateFile(const std::string& name,
                              std::size_t size) = 0;

  /// Deletes `name`; deleting a missing file is OK (idempotent).
  virtual Status RemoveFile(const std::string& name) = 0;

  /// Every file name present, sorted lexicographically.
  virtual Result<std::vector<std::string>> ListFiles() const = 0;
};

/// In-memory storage for tests and benchmarks: deterministic, no I/O
/// noise, contents directly inspectable (and corruptible) by harnesses.
class MemoryStorage : public StableStorage {
 public:
  Status WriteFile(const std::string& name,
                   std::string_view bytes) override;
  Status AppendFile(const std::string& name,
                    std::string_view bytes) override;
  Result<std::string> ReadFile(const std::string& name) const override;
  Status TruncateFile(const std::string& name, std::size_t size) override;
  Status RemoveFile(const std::string& name) override;
  Result<std::vector<std::string>> ListFiles() const override;

  /// Direct mutable access for corruption harnesses (nullptr when the
  /// file does not exist).
  std::string* MutableFile(const std::string& name);

 private:
  std::map<std::string, std::string> files_;
};

/// Real files under one directory — the CLI's --checkpoint-dir backend.
/// Snapshots are written via a temporary file + rename so a torn
/// whole-file write can never shadow a previously valid snapshot, and
/// both write paths are power-fail safe (DESIGN.md section 15,
/// durability residual b):
///  * AppendFile (the WAL group-flush boundary) fdatasync()s the log
///    before reporting success, so an acknowledged chronon's records
///    survive an OS crash — not just a process crash.
///  * WriteFile fdatasync()s the temporary before the rename and
///    fsync()s the directory after it, so the rename itself (the
///    snapshot commit point) is durable and cannot resurrect the old
///    snapshot after power loss.
class DirectoryStorage : public StableStorage {
 public:
  /// `directory` is created (with parents) when missing.
  explicit DirectoryStorage(std::string directory);

  /// IoError when the directory could not be created.
  Status Prepare();

  Status WriteFile(const std::string& name,
                   std::string_view bytes) override;
  Status AppendFile(const std::string& name,
                    std::string_view bytes) override;
  Result<std::string> ReadFile(const std::string& name) const override;
  Status TruncateFile(const std::string& name, std::size_t size) override;
  Status RemoveFile(const std::string& name) override;
  Result<std::vector<std::string>> ListFiles() const override;

  const std::string& directory() const { return directory_; }

 private:
  std::string PathFor(const std::string& name) const;

  std::string directory_;
};

}  // namespace pullmon

#endif  // PULLMON_RECOVERY_STABLE_STORAGE_H_
