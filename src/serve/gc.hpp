#pragma once

/// \file gc.hpp
/// Crash-safe age- and usage-aware GC for the content-addressed cell cache.
///
/// Eviction protocol (per entry, all steps atomic or idempotent):
///   1. write `<cell>.lib.tomb` via temp+rename (the intent record);
///   2. unlink `<cell>.lib`;
///   3. unlink `<cell>.lib.stamp`;
///   4. unlink `<cell>.lib.tomb`.
/// kill -9 anywhere in 1..4 leaves either a complete entry plus a tombstone
/// or partial debris plus a tombstone; the next sweep FIRST completes every
/// tombstone it finds (re-running 2..4), so a half-evicted entry can never
/// be served. The worst race — a peer re-characterizes the pair between a
/// crash and the completing sweep — only costs one extra characterization:
/// cells are deterministic functions of (scenario, cell, grid), and the
/// Liberty writer's fixed 4-decimal format makes the re-published file
/// bitwise identical, which is the whole GC safety argument.
///
/// A sweep never touches:
///   * entries whose `.lib.lease` is held (a leader is characterizing or a
///     follower is about to read);
///   * pairs spooled as queued fleet work (`<grid>/spool/*.task`);
///   * pairs the grid manifest quarantines as "failed" (their error chain
///     is the durable record; deleting debris around them would erase the
///     evidence an operator needs).
/// Everything else ages out on max(mtime of `.lib`, mtime of `.lib.stamp`)
/// — the stamp is refreshed on every cache hit, so "age" is idle time, not
/// time since characterization.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rw::serve {

struct GcOptions {
  /// Root cache directory (the factory's `cache_dir`, holding grid dirs).
  std::string cache_dir;
  /// Entries idle longer than this are evicted. The default (7 days)
  /// matches $RW_SERVE_GC_MAX_AGE_MS.
  double max_age_ms = 7.0 * 24.0 * 3600.0 * 1000.0;
  /// Hard idle floor, even when `max_age_ms` is lower (e.g. 0): an entry
  /// published or stamped this recently is in active use by definition, and
  /// evicting it would let an aggressive sweep cadence livelock against the
  /// consumers it is racing (evict -> re-characterize -> evict ...).
  double min_idle_ms = 250.0;
  /// Count what would be evicted without touching the cache.
  bool dry_run = false;
};

struct GcResult {
  std::uint64_t evicted = 0;
  std::uint64_t skipped_leased = 0;
  std::uint64_t skipped_quarantined = 0;  ///< manifest-failed or spool-pending
  std::uint64_t skipped_recent = 0;
  std::uint64_t tombstones_completed = 0;

  [[nodiscard]] std::vector<std::pair<std::string, double>> as_pairs() const;
};

/// One full sweep over every grid under `cache_dir`. Safe to run while
/// daemons characterize into the same cache; an evicted entry is simply
/// re-characterized (bitwise identically) on next use.
GcResult gc_sweep(const GcOptions& options);

}  // namespace rw::serve
