#pragma once

/// \file spool.hpp
/// Fleet work spool: how rwserved daemons sharing one cache directory see
/// each other's queued work. Every admitted (scenario, cell) task is
/// mirrored as a file in `<grid dir>/spool/` whose one-line JSON body is a
/// WorkerTask document plus the owner's `"ttl_ms"`, and the owning daemon
/// holds a `util::FileLease` lock on that file for as long as the task is
/// its own:
///
///  * lock held and the file younger than its TTL  -> leave it alone;
///  * lock free (the kernel dropped a dead owner's) -> ADOPT it;
///  * lock held but the file older than its TTL    -> STEAL it (the owner
///    is wedged; charlib's per-pair `.lib.lease` still guarantees at most
///    one SPICE campaign, so a duplicate dispatch is benign — the slower
///    daemon just finds the cell on disk).
///
/// Takeovers are arbitrated by a lock on `<spool file>.claim`; the winner
/// republishes the spool file under its own lock (temp+rename), so a
/// contender that re-checks after winning the claim sees a fresh, held
/// entry. The owner unlinks the file when the task completes or
/// quarantines; files nobody holds are crash debris otherwise, which is
/// precisely what makes adoption work.

#include <optional>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "util/proc_lease.hpp"

namespace rw::serve {

/// Milliseconds since `path` was last modified, against the system clock
/// (clamped at 0); `fallback` when it is missing. Spool TTLs and GC idle
/// ages are both measured this way, so peers need no shared clock beyond
/// the filesystem's.
double file_idle_ms(const std::string& path, double fallback);

/// One spooled task as read back from disk.
struct SpoolRecord {
  WorkerTask task;
  double ttl_ms = 0.0;
  double age_ms = 0.0;  ///< now - file mtime (clamped at 0)
};

/// `<grid dir>/spool` — peers sharing a grid cache share one spool.
std::string spool_dir(const std::string& grid_dir);

/// Spool file for one task key ('/' flattened; keys never collide because
/// scenario ids contain no '_''-runs that would alias).
std::string spool_path(const std::string& dir, const std::string& task_key);

/// Atomically publishes (temp+rename) the spool file — WorkerTask fields
/// plus {"ttl_ms": ttl} — and returns the owner's lock on it. `std::nullopt`
/// on I/O failure: spooling is best-effort; a daemon that cannot spool still
/// serves, it just cannot be adopted from.
std::optional<util::FileLease> publish_spool_record(const std::string& path,
                                                    const WorkerTask& task, double ttl_ms);

/// Parses a spool file. False on an absent or unparsable file (a foreign
/// file nobody holds is discarded by the steal pass).
bool read_spool_record(const std::string& path, SpoolRecord& out);

/// All `*.task` files under `dir`, sorted (deterministic steal order).
std::vector<std::string> list_spool_tasks(const std::string& dir);

}  // namespace rw::serve
