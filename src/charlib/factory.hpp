#pragma once

/// \file factory.hpp
/// Memoizing factory for degradation-aware libraries. Characterization is
/// SPICE-heavy, so results are cached at (cell, scenario) granularity in
/// memory and — optionally — on disk in the Liberty text format (one
/// single-cell library per file), which lets every test/bench binary share
/// one characterization pass. The disk layout is
///   <cache_dir>/<grid-tag>/<scenario-id>/<cell>.lib
///
/// The factory is concurrency-safe: every public method may be called from
/// any thread, the memo maps are mutex-guarded, and an in-flight table
/// deduplicates work so two threads asking for the same (scenario, cell)
/// never characterize it twice — the second caller blocks until the first
/// finishes. `library()` and `merged()` flatten the (scenario × cell × arc ×
/// OPC grid) task queues of every requested pair into ONE top-level
/// `util::ThreadPool::shared().parallel_for`, so per-cell work never nests
/// (and therefore never serializes) inside an outer parallel loop; results
/// are assembled in catalog order, so the produced libraries are bitwise
/// identical for any thread count. Disk-cache writes go through a temp file
/// plus atomic rename, and truncated/corrupt cache files are discarded and
/// re-characterized rather than failing the run.
///
/// Adaptive λ-corner grid (`CharacterizeOptions::adaptive`, opt-in via
/// $RW_CHAR_ADAPTIVE): only scenarios on a sparse λ lattice are
/// SPICE-characterized; any other corner is served by certified bilinear
/// interpolation between its bracketing lattice corners (see
/// charlib/adaptive.hpp). When the certified bound exceeds
/// `adaptive.interp_tol_ps` the corner is refined — characterized directly —
/// so accuracy is never silently traded. Interpolated cells carry an
/// `rw_interp` marker (lint rule LB007 audits the bound), and the disk cache
/// directory is keyed with the adaptive policy tag so interpolated and exact
/// caches never mix.
///
/// Resilience: a run manifest (`manifest.json` next to the disk cache)
/// checkpoints per-(scenario, cell) status so a killed campaign resumes via
/// `resume()` / $RW_CHAR_RESUME, and pairs that fail permanently (a
/// `CharError` after the solver's full retry ladder) are quarantined with
/// their error chain: later requests for the pair fail fast with the same
/// chain, and `merged()` skips quarantined pairs instead of aborting. The
/// manifest file is written only when resume state changes (see
/// manifest.hpp): never on a disk-cache hit, so warm loads stay off fsync
/// and off the factory mutex's critical path.
///
/// Cross-process dedup: when the disk cache is enabled, the in-flight-leader
/// machinery extends across process boundaries via a kernel-held lock on a
/// lease file next to each cache entry (`<cell>.lib.lease`, see
/// util/proc_lease.hpp). Exactly one process — a second CLI, an `rwserved`
/// worker, anyone sharing the cache directory — characterizes a (scenario,
/// cell); everyone else rendezvouses on the published cache file. The kernel
/// releases a crashed leader's lock, and the next requester takes over, so
/// dedup can delay but never wedge a characterization. A leader that is
/// alive but wedged keeps its lease; in rwserved the supervisor's per-task
/// deadline SIGKILLs such a worker. A held lease is an open descriptor, so
/// `library()` / `merged()` claim, run and publish their pairs in rounds
/// that stay well inside RLIMIT_NOFILE. The factory also polls the
/// process-wide `CancelToken` on every cache probe, so a SIGTERM
/// mid-library-load is honored even when every cell is a disk hit and no
/// solver ever runs.

#include <array>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "aging/scenario.hpp"
#include "charlib/characterizer.hpp"
#include "charlib/manifest.hpp"
#include "liberty/library.hpp"

namespace rw::charlib {

/// Thrown (instead of characterizing) when `Options::disk_only` is set and a
/// requested (scenario, cell) is not in the disk cache. Deliberately NOT a
/// CharError: a cache miss is a routing problem for the caller (rwserved's
/// supervisor re-queues the pair to a worker), never a permanent cell
/// failure, so it must not be quarantined.
class CacheMissError : public std::runtime_error {
 public:
  CacheMissError(std::string scenario_id, std::string cell);
  [[nodiscard]] const std::string& scenario_id() const { return scenario_id_; }
  [[nodiscard]] const std::string& cell() const { return cell_; }

 private:
  std::string scenario_id_;
  std::string cell_;
};

class LibraryFactory {
 public:
  struct Options {
    CharacterizeOptions characterize{};
    /// Disk cache root; empty disables the disk cache. `default_options()`
    /// reads $RW_LIBCACHE, falling back to $HOME/.cache/reliaware.
    std::string cache_dir;
    /// Restrict to these cells (empty = the full catalog). Useful in tests.
    std::vector<std::string> cell_subset;
    /// Honor an existing manifest.json on construction: "done" pairs are
    /// served from the disk cache, "failed" pairs go straight to quarantine.
    /// `default_options()` reads $RW_CHAR_RESUME (any value but "0").
    bool resume = false;
    /// Serve from the disk cache ONLY: a miss raises CacheMissError instead
    /// of characterizing in-process. Used by rwserved's supervisor, which
    /// must never run SPICE on the accept loop — workers warm the cache.
    bool disk_only = false;
    /// Own manifest.json: record done/failed pairs and honor `resume`. Set
    /// false for processes that share a cache directory with a coordinator
    /// that owns the manifest (rwserved workers), so concurrent factories
    /// never clobber each other's checkpoint file.
    bool use_manifest = true;
  };

  static Options default_options();

  explicit LibraryFactory(Options options = default_options());

  /// One characterized cell under one scenario (memoized, disk-cached).
  /// The returned reference stays valid for the factory's lifetime.
  const liberty::Cell& cell(const std::string& cell_name, const aging::AgingScenario& scenario);

  /// A full degradation-aware library for one scenario (Section 4.1); cells
  /// are characterized in parallel. The returned reference stays valid for
  /// the factory's lifetime.
  const liberty::Library& library(const aging::AgingScenario& scenario);

  /// The merged "complete" library over many (λp, λn) corners; all scenarios
  /// must share the lifetime/mobility settings. Built directly from the
  /// shared (scenario, cell) cache — previously characterized pairs (via
  /// `cell()`, `library()`, or an earlier `merged()`) are reused, and
  /// corners not already memoized as full libraries are NOT added to the
  /// library memo, so merging 121 corners does not pin 121 library copies.
  /// Quarantined (permanently failing) pairs are skipped, so one bad corner
  /// cannot poison the whole merged library; inspect `quarantined()` after.
  liberty::Library merged(const std::vector<aging::AgingScenario>& scenarios);

  /// Reload the run manifest from disk and honor its entries: "failed"
  /// pairs are quarantined with their recorded error chain, "done" pairs
  /// will be served from the disk cache. Returns the number of manifest
  /// entries honored. Called by the constructor when `options.resume`.
  std::size_t resume();

  /// One entry per permanently failed (scenario, cell) pair.
  struct QuarantinedCell {
    std::string scenario;  ///< scenario id
    std::string cell;
    std::string error;  ///< full chain: CharError tag + solver attempt history
  };
  /// Snapshot of the quarantine in deterministic (scenario, cell) order.
  [[nodiscard]] std::vector<QuarantinedCell> quarantined() const;

  /// Quarantine a (scenario, cell) pair from outside the characterization
  /// path — rwserved uses this when a pair exhausts its redelivery budget
  /// (e.g. the cell reproducibly crashes every worker, so no CharError ever
  /// comes back). Records "failed" in the manifest like an in-process
  /// CharError would; later `cell()` calls fail fast with `error`.
  void quarantine_pair(const std::string& scenario_id, const std::string& cell_name,
                       const std::string& error);

  /// True when the pair is quarantined (in memory or via a resumed
  /// manifest). rwserved consults this at admission so a known-bad pair is
  /// answered immediately instead of burning a worker dispatch.
  [[nodiscard]] bool is_quarantined(const std::string& scenario_id,
                                    const std::string& cell_name) const;

  /// Disk-cache path this factory would use for one pair ("" when the disk
  /// cache is disabled). The cross-process dedup lease lives at this path +
  /// ".lease". Exposed for rwserved (cache-probe at admission) and lint
  /// rule SV001.
  [[nodiscard]] std::string cache_path(const std::string& cell_name,
                                       const aging::AgingScenario& scenario) const;

  /// Where this factory checkpoints ("" when the disk cache is disabled or
  /// `Options::use_manifest` is off).
  [[nodiscard]] std::string manifest_path() const;

  /// Grid-level cache directory this factory keys everything under (""
  /// when the disk cache is disabled). rwserved fleets spool queued task
  /// files in `<grid dir>/spool/` so peers sharing the cache can steal or
  /// adopt each other's work.
  [[nodiscard]] std::string grid_cache_dir() const;

  /// Usage-stamp sidecar next to a cached cell (`<cell>.lib.stamp`). Its
  /// mtime is the pair's last-used time: refreshed (throttled) on every
  /// cache hit and publish, consumed by rwserved's age/usage-aware GC, and
  /// audited for orphans by lint rule SV002.
  [[nodiscard]] static std::string usage_stamp_path(const std::string& lib_path) {
    return lib_path + ".stamp";
  }

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  using CellKey = std::pair<std::string, std::string>;  // (scenario id, cell)

  /// Entry in the in-flight table; waiters block on `factory.cv_`.
  struct CellJob {
    bool done = false;
    std::exception_ptr error;  ///< a failure other than a CharError
    /// A CharError as its (cell, context, detail), so that every waiter
    /// throws an instance of its own: rethrowing one exception object from
    /// several threads shares its reference-counted message between them.
    std::optional<std::array<std::string, 3>> char_error;
  };

  std::string grid_dir() const;
  std::string scenario_dir(const aging::AgingScenario& scenario) const;
  /// Disk-cache path for one pair ("" when the cache is disabled). The
  /// cross-process dedup lease lives at this path + ".lease".
  std::string cell_lib_path(const std::string& cell_name,
                            const aging::AgingScenario& scenario) const;
  std::vector<std::string> cell_names() const;
  /// The scenarios that must be SPICE-characterized to serve `scenario`:
  /// the scenario itself, or — adaptive grid, off-lattice — its bracketing
  /// lattice corners.
  std::vector<aging::AgingScenario> direct_scenarios(const aging::AgingScenario& scenario) const;
  /// Produces one cell result (disk cache -> λ interpolation -> direct
  /// characterization). Runs outside the factory mutex, inside the caller's
  /// in-flight claim on (scenario, cell). `from_disk` tells whether the
  /// result was read from the disk cache (published by this process earlier
  /// or by a peer) rather than computed here.
  liberty::Cell build_cell(const std::string& cell_name, const aging::AgingScenario& scenario,
                           bool& from_disk);
  /// Characterizes every not-yet-cached pair through one flat top-level task
  /// list (every pair's arc×OPC tasks merged; no nested parallel_for).
  /// `pairs` must be direct (lattice) scenarios. CharErrors are quarantined
  /// per pair and NOT rethrown here — callers see them when they ask for the
  /// pair; the first other failure (I/O, cancellation, logic bug) is
  /// rethrown after every pair has been finalized and its waiters released.
  void characterize_batch(const std::vector<std::pair<aging::AgingScenario, std::string>>& pairs);
  /// Publishes a finished cell under `key`, records it "done" in the
  /// in-memory manifest, and releases its waiters. `checkpoint` also saves
  /// the manifest file; callers pass it only for a pair this process just
  /// computed, never for a disk-cache hit.
  const liberty::Cell& finalize_success(const CellKey& key, const std::shared_ptr<CellJob>& job,
                                        liberty::Cell cell, bool checkpoint);
  /// Records a failed pair (quarantining CharErrors) and releases waiters.
  void finalize_failure(const CellKey& key, const std::shared_ptr<CellJob>& job,
                        std::exception_ptr error);
  /// Disk-cache read; returns nothing (and removes the file) when missing,
  /// truncated, or otherwise unparsable.
  std::unique_ptr<liberty::Cell> load_cached_cell(const std::string& path,
                                                  const std::string& cell_name) const;
  /// Disk-cache write via `<path>.tmp.<pid>.<seq>` + atomic rename.
  void store_cached_cell(const aging::AgingScenario& scenario, const std::string& cell_name,
                         const liberty::Cell& cell) const;

  Options options_;
  mutable std::mutex mutex_;            ///< guards the maps and manifest below
  std::condition_variable cv_;          ///< signaled when an in-flight job finishes
  std::map<CellKey, liberty::Cell> cell_cache_;
  std::map<CellKey, std::shared_ptr<CellJob>> in_flight_;
  std::map<std::string, std::unique_ptr<liberty::Library>> library_cache_;  // scenario id
  std::map<CellKey, std::string> quarantine_;  ///< error chain per failed pair
  RunManifest manifest_;
};

}  // namespace rw::charlib
