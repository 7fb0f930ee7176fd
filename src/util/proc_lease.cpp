#include "util/proc_lease.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

#include "util/atomic_file.hpp"
#include "util/io.hpp"

namespace rw::util {

namespace {

/// Whole-file write-lock request (`l_len == 0` reaches EOF and beyond).
struct flock whole_file_write_lock() {
  struct flock fl {};
  fl.l_type = F_WRLCK;
  fl.l_whence = SEEK_SET;
  return fl;
}

bool lock(int fd) {
  struct flock fl = whole_file_write_lock();
  return ::fcntl(fd, F_OFD_SETLK, &fl) == 0;
}

/// Whether `fd` still names the file at `path` (not unlinked or replaced).
bool names_path(int fd, const std::string& path) {
  struct stat by_fd {};
  struct stat by_path {};
  return ::fstat(fd, &by_fd) == 0 && ::stat(path.c_str(), &by_path) == 0 &&
         by_fd.st_dev == by_path.st_dev && by_fd.st_ino == by_path.st_ino;
}

int open_creating_parents(const std::string& path, int flags) {
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0 && errno == ENOENT) {
    // First lease under a directory nobody has published into yet (the
    // cache creates dirs on write): create it and retry once.
    const std::filesystem::path parent = std::filesystem::path(path).parent_path();
    std::error_code ec;
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
    fd = ::open(path.c_str(), flags, 0644);
  }
  return fd;
}

}  // namespace

bool held(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return errno != ENOENT;
  struct flock fl = whole_file_write_lock();
  const bool locked = ::fcntl(fd, F_OFD_GETLK, &fl) != 0 || fl.l_type != F_UNLCK;
  ::close(fd);
  return locked;
}

std::optional<FileLease> FileLease::try_acquire(const std::string& path) {
  for (;;) {
    const int fd = open_creating_parents(path, O_CREAT | O_RDWR | O_CLOEXEC);
    if (fd < 0) {
      const int err = errno;  // before the message allocates
      throw std::system_error(err, std::generic_category(), "open " + path);
    }
    if (!lock(fd)) {
      const int err = errno;
      ::close(fd);
      if (err == EAGAIN || err == EACCES) return std::nullopt;  // held elsewhere
      throw std::system_error(err, std::generic_category(), "lock " + path);
    }
    if (names_path(fd, path)) return FileLease(path, fd);
    // We locked an inode its last holder already released (unlinked) or a
    // publisher replaced: leading on it would not exclude anyone.
    ::close(fd);
  }
}

std::optional<FileLease> FileLease::publish(const std::string& path, std::string_view body) {
  const std::string tmp = temp_sibling(path);
  const int fd = open_creating_parents(tmp, O_CREAT | O_TRUNC | O_RDWR | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  FileLease lease(tmp, fd);  // until the rename, releasing removes the temp file
  if (!lock(fd) || !io::write_all(fd, body.data(), body.size()) || ::fsync(fd) != 0 ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    return std::nullopt;
  }
  lease.path_ = path;
  return lease;
}

FileLease::FileLease(FileLease&& other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_) {
  other.path_.clear();
  other.fd_ = -1;
}

FileLease& FileLease::operator=(FileLease&& other) noexcept {
  if (this != &other) {
    release();
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    other.path_.clear();
    other.fd_ = -1;
  }
  return *this;
}

void FileLease::release() {
  if (fd_ < 0) return;
  // Unlink first: a contender that opened the file before this point and
  // locks it after our close sees a dead inode and retries (try_acquire).
  ::unlink(path_.c_str());
  ::close(fd_);
  fd_ = -1;
  path_.clear();
}

}  // namespace rw::util
