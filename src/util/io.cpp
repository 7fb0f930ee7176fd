#include "util/io.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>

namespace rw::util::io {

namespace {

int steady_ms_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
}

/// Binds `addr` from `path`, throwing when the path exceeds sun_path.
sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("unix socket path too long (" + std::to_string(path.size()) +
                             " >= " + std::to_string(sizeof(addr.sun_path)) + "): " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

void ignore_sigpipe() { std::signal(SIGPIPE, SIG_IGN); }

long read_some(int fd, void* buf, std::size_t n) {
  for (;;) {
    const ssize_t got = ::read(fd, buf, n);
    if (got >= 0) return static_cast<long>(got);
    if (errno != EINTR) return -1;
  }
}

bool write_all(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t wrote = ::write(fd, p, n);
    if (wrote > 0) {
      p += wrote;
      n -= static_cast<std::size_t>(wrote);
      continue;
    }
    if (wrote < 0 && errno == EINTR) continue;
    return false;  // 0 or a hard error (EPIPE with SIGPIPE ignored, ...)
  }
  return true;
}

bool write_all(int fd, const std::string& data) { return write_all(fd, data.data(), data.size()); }

int poll_one(int fd, short events, int timeout_ms) {
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    int remaining = timeout_ms;
    if (timeout_ms > 0) {
      remaining = timeout_ms - steady_ms_since(t0);
      if (remaining <= 0) return 0;
    }
    const int rc = ::poll(&pfd, 1, remaining);
    if (rc > 0) return pfd.revents;
    if (rc == 0) return 0;
    if (errno != EINTR) return -1;
  }
}

bool set_nonblocking(int fd, bool enabled) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int want = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, want) == 0;
}

int listen_unix(const std::string& path, int backlog) {
  const sockaddr_un addr = unix_addr(path);
  // A leftover socket file from a crashed daemon would make bind() fail with
  // EADDRINUSE. Probe it: refused/absent means dead (unlink and take over);
  // a successful connect means a live daemon owns the path.
  const int probe = connect_unix(path);
  if (probe >= 0) {
    ::close(probe);
    throw std::runtime_error("another daemon is live on " + path);
  }
  ::unlink(path.c_str());

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(AF_UNIX): " + std::string(std::strerror(errno)));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("bind " + path + ": " + err);
  }
  if (::listen(fd, backlog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ::unlink(path.c_str());
    throw std::runtime_error("listen " + path + ": " + err);
  }
  return fd;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  try {
    addr = unix_addr(path);
  } catch (const std::exception&) {
    errno = ENAMETOOLONG;
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  for (;;) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) return fd;
    if (errno == EINTR) continue;
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
}

LineReader::Status LineReader::read_line(std::string& line, int timeout_ms) {
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    const std::size_t nl = buffer_.find('\n', scanned_);
    if (nl != std::string::npos) {
      line.assign(buffer_, start_, nl - start_);
      start_ = scanned_ = nl + 1;
      return Status::kLine;
    }
    // No complete line buffered: drop the consumed prefix once (each byte
    // moves at most once) and resume the search where this one stopped.
    buffer_.erase(0, start_);
    scanned_ = buffer_.size();
    start_ = 0;
    if (timeout_ms >= 0) {
      // timeout 0 = "consume whatever is already readable, never block":
      // the poll below runs with 0 and gates the read.
      int remaining = 0;
      if (timeout_ms > 0) {
        remaining = timeout_ms - steady_ms_since(t0);
        if (remaining <= 0) return Status::kTimeout;
      }
      const int ready = poll_one(fd_, POLLIN, remaining);
      if (ready == 0) return Status::kTimeout;
      if (ready < 0) return Status::kError;
    }
    char chunk[4096];
    const long got = read_some(fd_, chunk, sizeof chunk);
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;  // raced the poll
      return Status::kError;
    }
    if (got == 0) return Status::kEof;
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
}

}  // namespace rw::util::io
