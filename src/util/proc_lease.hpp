#pragma once

/// \file proc_lease.hpp
/// Cross-process leader election over a kernel-held lock: a lease is an
/// open file description holding an `F_OFD_SETLK` write lock on `<path>`.
/// Exactly one process holds it at a time, and that process is the leader
/// for whatever the lease guards (one (scenario, cell) characterization in
/// the factory's disk cache, one fleet spool entry, one spool takeover).
/// Everyone else rendezvouses on the leader's published result.
///
/// The kernel drops the lock when its holder dies, so crash tolerance needs
/// no pid, TTL or body: a file nobody locks is crash debris that the next
/// `try_acquire` simply takes over. Three lock semantics shape the API:
///  * OFD locks conflict between two `open()`s even inside one process, so
///    two threads (or one thread twice) contend like two processes;
///  * `F_OFD_GETLK` reports no holder pid, so `held()` answers only "is
///    anyone holding it";
///  * the lock lives until every fd sharing the open file description is
///    closed, so a forked child must close `fd()` (never `release()`) or it
///    keeps its parent's lease alive past the parent's death.
///
/// Lint rule SV001 uses `held` to flag `.lease` files nobody holds (the
/// footprint of a crashed leader).

#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace rw::util {

/// True when some open file description holds a lock on `<path>` — in any
/// process, this one included. False when the file is missing. An I/O
/// failure (say EMFILE) also reads as held: every caller then leaves the
/// file alone, which is the safe answer.
bool held(const std::string& path);

/// RAII lease ownership; releasing unlinks the file. Move-only.
class FileLease {
 public:
  /// One shot at leadership: opens (creating it, and missing parent dirs)
  /// `<path>` and takes the lock without blocking. A holder that unlinked or
  /// replaced the file between our open and our lock leaves us locking a
  /// dead inode, so that case retries on the current file. `std::nullopt`
  /// when someone else holds it; throws `std::system_error` on I/O failure
  /// (say EMFILE), which must not pass for another process leading.
  static std::optional<FileLease> try_acquire(const std::string& path);

  /// Atomically replaces `<path>` with `body` (temp file + rename) and
  /// returns the lock on the new inode, taken before the rename: no reader
  /// ever sees the new body unlocked. `std::nullopt` on I/O failure.
  static std::optional<FileLease> publish(const std::string& path, std::string_view body);

  FileLease(FileLease&& other) noexcept;
  FileLease& operator=(FileLease&& other) noexcept;
  FileLease(const FileLease&) = delete;
  FileLease& operator=(const FileLease&) = delete;
  ~FileLease() { release(); }

  /// Unlinks the lease file while still holding the lock, then closes it
  /// (idempotent). Publish results *before* calling this: release is the
  /// signal observers rendezvous on.
  void release();

  [[nodiscard]] const std::string& path() const { return path_; }
  /// The locked descriptor (-1 once released), for a forked child to close.
  [[nodiscard]] int fd() const { return fd_; }

 private:
  FileLease(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}
  std::string path_;
  int fd_ = -1;
};

}  // namespace rw::util
