#include "recovery/stable_storage.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace pullmon {

namespace fs = std::filesystem;

namespace {

#if !defined(_WIN32)

/// RAII file descriptor (POSIX durability path).
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }
  bool ok() const { return fd_ >= 0; }

 private:
  int fd_;
};

Status WriteAll(int fd, std::string_view bytes, const std::string& path) {
  const char* data = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("write to " + path + " failed: " +
                             std::strerror(errno));
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  return Status::OK();
}

#endif  // !defined(_WIN32)

}  // namespace

// ---------------------------------------------------------------------
// MemoryStorage
// ---------------------------------------------------------------------

Status MemoryStorage::WriteFile(const std::string& name,
                                std::string_view bytes) {
  files_[name].assign(bytes.data(), bytes.size());
  return Status::OK();
}

Status MemoryStorage::AppendFile(const std::string& name,
                                 std::string_view bytes) {
  files_[name].append(bytes.data(), bytes.size());
  return Status::OK();
}

Result<std::string> MemoryStorage::ReadFile(const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("no such file: " + name);
  }
  return it->second;
}

Status MemoryStorage::TruncateFile(const std::string& name,
                                   std::size_t size) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("no such file: " + name);
  }
  if (it->second.size() > size) it->second.resize(size);
  return Status::OK();
}

Status MemoryStorage::RemoveFile(const std::string& name) {
  files_.erase(name);
  return Status::OK();
}

Result<std::vector<std::string>> MemoryStorage::ListFiles() const {
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, bytes] : files_) names.push_back(name);
  return names;  // std::map iterates sorted
}

std::string* MemoryStorage::MutableFile(const std::string& name) {
  auto it = files_.find(name);
  return it == files_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------
// DirectoryStorage
// ---------------------------------------------------------------------

DirectoryStorage::DirectoryStorage(std::string directory)
    : directory_(std::move(directory)) {}

Status DirectoryStorage::Prepare() {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint directory " +
                           directory_ + ": " + ec.message());
  }
  return Status::OK();
}

std::string DirectoryStorage::PathFor(const std::string& name) const {
  return (fs::path(directory_) / name).string();
}

Status DirectoryStorage::WriteFile(const std::string& name,
                                   std::string_view bytes) {
  // Write-then-rename keeps a previously valid file visible until the
  // replacement is fully on disk; the fdatasync before the rename and
  // the directory fsync after it make the swap itself power-fail safe
  // (a crash either keeps the old file or the complete new one).
  const std::string final_path = PathFor(name);
  const std::string tmp_path = final_path + ".tmp";
#if !defined(_WIN32)
  {
    Fd fd(::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
    if (!fd.ok()) {
      return Status::IoError("cannot open " + tmp_path + ": " +
                             std::strerror(errno));
    }
    PULLMON_RETURN_NOT_OK(WriteAll(fd.get(), bytes, tmp_path));
    if (::fdatasync(fd.get()) != 0) {
      return Status::IoError("fdatasync on " + tmp_path + " failed: " +
                             std::strerror(errno));
    }
  }
#else
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open " + tmp_path);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) return Status::IoError("short write to " + tmp_path);
  }
#endif
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    return Status::IoError("cannot rename " + tmp_path + ": " +
                           ec.message());
  }
#if !defined(_WIN32)
  {
    Fd dir(::open(directory_.c_str(), O_RDONLY | O_DIRECTORY));
    if (!dir.ok()) {
      return Status::IoError("cannot open directory " + directory_ + ": " +
                             std::strerror(errno));
    }
    if (::fsync(dir.get()) != 0) {
      return Status::IoError("fsync on directory " + directory_ +
                             " failed: " + std::strerror(errno));
    }
  }
#endif
  return Status::OK();
}

Status DirectoryStorage::AppendFile(const std::string& name,
                                    std::string_view bytes) {
  const std::string path = PathFor(name);
#if !defined(_WIN32)
  // One fdatasync per append: the WAL batches a chronon's records into a
  // single AppendFile (the group-flush boundary), so this is exactly one
  // sync per committed chronon.
  Fd fd(::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644));
  if (!fd.ok()) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  PULLMON_RETURN_NOT_OK(WriteAll(fd.get(), bytes, path));
  if (::fdatasync(fd.get()) != 0) {
    return Status::IoError("fdatasync on " + path + " failed: " +
                           std::strerror(errno));
  }
  return Status::OK();
#else
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) return Status::IoError("cannot open " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::IoError("short append to " + path);
  return Status::OK();
#endif
}

Result<std::string> DirectoryStorage::ReadFile(
    const std::string& name) const {
  std::ifstream in(PathFor(name), std::ios::binary);
  if (!in) return Status::NotFound("no such file: " + PathFor(name));
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IoError("read error on " + PathFor(name));
  return bytes;
}

Status DirectoryStorage::TruncateFile(const std::string& name,
                                      std::size_t size) {
  const std::string path = PathFor(name);
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    return Status::NotFound("no such file: " + path);
  }
  const auto current = fs::file_size(path, ec);
  if (ec) return Status::IoError("cannot stat " + path + ": " + ec.message());
  if (current <= size) return Status::OK();
  fs::resize_file(path, size, ec);
  if (ec) {
    return Status::IoError("cannot truncate " + path + ": " + ec.message());
  }
  return Status::OK();
}

Status DirectoryStorage::RemoveFile(const std::string& name) {
  std::error_code ec;
  fs::remove(PathFor(name), ec);
  if (ec) {
    return Status::IoError("cannot remove " + PathFor(name) + ": " +
                           ec.message());
  }
  return Status::OK();
}

Result<std::vector<std::string>> DirectoryStorage::ListFiles() const {
  std::vector<std::string> names;
  std::error_code ec;
  fs::directory_iterator it(directory_, ec);
  if (ec) {
    return Status::IoError("cannot list " + directory_ + ": " +
                           ec.message());
  }
  for (const auto& entry : it) {
    if (entry.is_regular_file()) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace pullmon
