#pragma once

/// \file io.hpp
/// EINTR-hardened POSIX I/O for the characterization service and every CLI
/// that talks over pipes or Unix-domain sockets. Raw `read`/`write`/`poll`
/// return EINTR whenever a signal lands — and the daemon *lives* on signals
/// (SIGCHLD from dying workers, SIGTERM drains) — so every byte that crosses
/// a process boundary goes through these retrying wrappers instead.
///
/// Also home to the SIGPIPE guard: a client that vanishes mid-response must
/// surface as an EPIPE error on the write path, never as a process-killing
/// signal, so daemons and CLIs call `ignore_sigpipe()` once at startup.

#include <string>

namespace rw::util::io {

/// Makes SIGPIPE a no-op for the whole process (idempotent). A dead peer
/// then reports as EPIPE from `write`, which callers handle like any other
/// I/O failure.
void ignore_sigpipe();

/// `read(fd, ...)` retrying EINTR. Returns the byte count, 0 at EOF, or -1
/// with errno set (never EINTR).
long read_some(int fd, void* buf, std::size_t n);

/// Writes all `n` bytes, retrying EINTR and short writes. Returns false with
/// errno set on any hard failure (EPIPE, ECONNRESET, ...).
bool write_all(int fd, const void* buf, std::size_t n);
bool write_all(int fd, const std::string& data);

/// `poll` on one fd for `events`, retrying EINTR (the remaining timeout is
/// re-derived from a steady clock). Returns >0 when ready (revents), 0 on
/// timeout, -1 on error. `timeout_ms < 0` blocks indefinitely.
int poll_one(int fd, short events, int timeout_ms);

/// O_NONBLOCK on/off; returns false on fcntl failure.
bool set_nonblocking(int fd, bool enabled);

/// Creates, binds, and listens on a Unix-domain stream socket. An existing
/// socket file that refuses connections (a dead daemon's leftover) is
/// unlinked and rebound; a *live* one makes this throw, so two daemons never
/// fight over one path. \throws std::runtime_error on any socket failure.
int listen_unix(const std::string& path, int backlog);

/// Connects to a Unix-domain stream socket. Returns the fd, or -1 with errno
/// set (ECONNREFUSED for a stale socket file, ENOENT for none at all).
int connect_unix(const std::string& path);

/// Buffered newline-framed reader over a blocking fd — the receive half of
/// the serve protocol (one JSON document per line).
class LineReader {
 public:
  enum class Status {
    kLine,     ///< a complete line was read (returned without the '\n')
    kEof,      ///< peer closed; no complete line buffered
    kTimeout,  ///< timeout_ms elapsed without a complete line
    kError,    ///< read failed (errno preserved)
  };

  explicit LineReader(int fd) : fd_(fd) {}

  /// Reads until a full line, EOF, error, or timeout. `timeout_ms < 0`
  /// blocks; `timeout_ms == 0` consumes whatever is already readable
  /// without blocking (the event-loop drain mode). EINTR never surfaces. A
  /// trailing partial line at EOF is reported as kEof (the protocol treats
  /// torn frames as peer death). Linear in the bytes read, however long
  /// the line or however many lines one read delivers.
  Status read_line(std::string& line, int timeout_ms = -1);

  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_;
  std::string buffer_;
  std::size_t start_ = 0;    ///< first unconsumed byte of buffer_
  std::size_t scanned_ = 0;  ///< buffer_ holds no '\n' in [start_, scanned_)
};

}  // namespace rw::util::io
