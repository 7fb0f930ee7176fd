#include "util/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/io.hpp"

namespace rw::util {

namespace fs = std::filesystem;

std::string temp_sibling(const std::string& path) {
  static std::atomic<unsigned> seq{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

namespace {

[[noreturn]] void fail(const std::string& tmp, const std::string& what) {
  std::error_code ignore;
  fs::remove(tmp, ignore);
  throw std::runtime_error("write_file_atomic: " + what);
}

/// fsync the directory holding `path` so the rename itself is durable — a
/// power cut or SIGKILL right after publish must not resurrect the old file
/// (or no file). Best-effort: some filesystems refuse directory fsync, and
/// the rename is still atomic for every live observer.
void sync_parent_dir(const std::string& path) {
  const fs::path parent = fs::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  while (::fsync(fd) != 0 && errno == EINTR) {
  }
  ::close(fd);
}

}  // namespace

void write_file_atomic(const std::string& path, std::string_view content) {
  std::error_code ec;
  const fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) fs::create_directories(parent, ec);
  const std::string tmp = temp_sibling(path);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw std::runtime_error("write_file_atomic: cannot open " + tmp);
  if (!io::write_all(fd, content.data(), content.size())) {
    ::close(fd);
    fail(tmp, "write failed for " + tmp);
  }
  // Flush file *content* before the rename publishes the name: without this
  // ordering a crash can expose a fully renamed but zero-length file — the
  // torn cache entry the whole temp+rename dance exists to prevent.
  int rc = 0;
  while ((rc = ::fsync(fd)) != 0 && errno == EINTR) {
  }
  if (rc != 0) {
    ::close(fd);
    fail(tmp, "fsync failed for " + tmp + ": " + std::strerror(errno));
  }
  if (::close(fd) != 0) fail(tmp, "close failed for " + tmp + ": " + std::strerror(errno));
  fs::rename(tmp, path, ec);
  if (ec) fail(tmp, "rename to " + path + " failed: " + ec.message());
  sync_parent_dir(path);
}

bool write_file_atomic_nothrow(const std::string& path, std::string_view content) noexcept {
  try {
    write_file_atomic(path, content);
    return true;
  } catch (...) {
    return false;
  }
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  out = std::move(os).str();
  return !in.bad();
}

}  // namespace rw::util
