#include "charlib/factory.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <filesystem>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "cells/catalog.hpp"
#include "charlib/adaptive.hpp"
#include "flow/cancel.hpp"
#include "liberty/merge.hpp"
#include "liberty/parser.hpp"
#include "liberty/writer.hpp"
#include "util/atomic_file.hpp"
#include "util/proc_lease.hpp"
#include "util/thread_pool.hpp"

namespace rw::charlib {

namespace fs = std::filesystem;

CacheMissError::CacheMissError(std::string scenario_id, std::string cell)
    : std::runtime_error("cache miss (disk_only): " + cell + " scenario=" + scenario_id),
      scenario_id_(std::move(scenario_id)),
      cell_(std::move(cell)) {}

LibraryFactory::Options LibraryFactory::default_options() {
  Options o;
  if (const char* env = std::getenv("RW_LIBCACHE"); env != nullptr && *env != '\0') {
    o.cache_dir = env;
  } else if (const char* home = std::getenv("HOME"); home != nullptr && *home != '\0') {
    o.cache_dir = std::string(home) + "/.cache/reliaware";
  }
  if (const char* env = std::getenv("RW_CHAR_RESUME"); env != nullptr && *env != '\0') {
    o.resume = std::string(env) != "0";
  }
  return o;
}

LibraryFactory::LibraryFactory(Options options)
    : options_(std::move(options)), manifest_(manifest_path()) {
  if (options_.resume) resume();
}

std::string LibraryFactory::grid_dir() const {
  // The adaptive policy changes what a cached cell *means* (exact vs
  // certified-interpolated at some tolerance), so it is part of the key.
  std::string dir = options_.cache_dir + "/" + options_.characterize.grid.tag();
  if (const std::string tag = options_.characterize.adaptive.cache_tag(); !tag.empty()) {
    dir += "-" + tag;
  }
  return dir;
}

std::string LibraryFactory::grid_cache_dir() const {
  return options_.cache_dir.empty() ? std::string{} : grid_dir();
}

std::string LibraryFactory::scenario_dir(const aging::AgingScenario& scenario) const {
  return grid_dir() + "/" + scenario.id();
}

std::string LibraryFactory::manifest_path() const {
  if (options_.cache_dir.empty() || !options_.use_manifest) return {};
  return grid_dir() + "/manifest.json";
}

std::string LibraryFactory::cell_lib_path(const std::string& cell_name,
                                          const aging::AgingScenario& scenario) const {
  if (options_.cache_dir.empty()) return {};
  return scenario_dir(scenario) + "/" + cell_name + ".lib";
}

bool LibraryFactory::is_quarantined(const std::string& scenario_id,
                                    const std::string& cell_name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return quarantine_.count(CellKey{scenario_id, cell_name}) != 0;
}

std::string LibraryFactory::cache_path(const std::string& cell_name,
                                       const aging::AgingScenario& scenario) const {
  return cell_lib_path(cell_name, scenario);
}

void LibraryFactory::quarantine_pair(const std::string& scenario_id,
                                     const std::string& cell_name, const std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  quarantine_[CellKey{scenario_id, cell_name}] = error;
  manifest_.record_failed(scenario_id, cell_name, error);
  manifest_.save();
}

std::size_t LibraryFactory::resume() {
  std::lock_guard<std::mutex> lock(mutex_);
  manifest_ = RunManifest::load(manifest_path());
  for (const ManifestEntry* e : manifest_.entries()) {
    if (e->status == "failed") quarantine_[CellKey{e->scenario, e->cell}] = e->error;
  }
  return manifest_.size();
}

std::vector<LibraryFactory::QuarantinedCell> LibraryFactory::quarantined() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<QuarantinedCell> out;
  out.reserve(quarantine_.size());
  for (const auto& [key, error] : quarantine_) {
    out.push_back(QuarantinedCell{key.first, key.second, error});
  }
  return out;
}

std::vector<std::string> LibraryFactory::cell_names() const {
  if (!options_.cell_subset.empty()) return options_.cell_subset;
  std::vector<std::string> names;
  names.reserve(cells::catalog().size());
  for (const auto& spec : cells::catalog()) names.push_back(spec.name);
  return names;
}

namespace {

/// Refreshes the usage-stamp sidecar next to `lib_path`. The stamp's mtime
/// IS the datum — a hit on an existing stamp only needs a metadata touch —
/// and creation goes through the shared atomic writer so kill -9 can never
/// leave a torn stamp. Touches are throttled to once a minute per stamp: a
/// warm library assembly re-reads every cell, and that hot path must not
/// become a metadata-write storm on the shared cache.
void touch_usage_stamp(const std::string& lib_path) {
  if (lib_path.empty()) return;
  const std::string stamp = LibraryFactory::usage_stamp_path(lib_path);
  struct stat st {};
  if (::stat(stamp.c_str(), &st) == 0) {
    if (std::time(nullptr) - st.st_mtime < 60) return;
    (void)::utimensat(AT_FDCWD, stamp.c_str(), nullptr, 0);
    return;
  }
  (void)util::write_file_atomic_nothrow(stamp, "{\"usage\":\"stamp\"}\n");
}

/// Most cache-entry leases one batch holds at once. A lease is an open
/// descriptor until its pair is published, so a batch larger than this runs
/// in rounds: an eighth of the soft RLIMIT_NOFILE (at most 256) leaves room
/// for the cache reads and writes in between, and for other batches.
std::size_t lease_budget() {
  struct rlimit lim {};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0 || lim.rlim_cur == RLIM_INFINITY) return 256;
  return std::clamp<std::size_t>(static_cast<std::size_t>(lim.rlim_cur / 8), 1, 256);
}

}  // namespace

std::unique_ptr<liberty::Cell> LibraryFactory::load_cached_cell(
    const std::string& path, const std::string& cell_name) const {
  std::error_code ec;
  if (!fs::exists(path, ec)) return nullptr;
  try {
    liberty::Library single = liberty::parse_library_file(path);
    if (single.find(cell_name) != nullptr) {
      touch_usage_stamp(path);
      return std::make_unique<liberty::Cell>(std::move(single).take(cell_name));
    }
  } catch (const std::exception&) {
    // Truncated or corrupt (e.g. a crash mid-write before atomic renames
    // existed): fall through to removal + re-characterization.
  }
  fs::remove(path, ec);
  return nullptr;
}

void LibraryFactory::store_cached_cell(const aging::AgingScenario& scenario,
                                       const std::string& cell_name,
                                       const liberty::Cell& cell) const {
  liberty::Library single("rw_cache_" + scenario.id());
  single.add_cell(cell);
  // Shared atomic temp+rename writer: concurrent factories (threads or
  // processes) never expose a partially written file, and the last complete
  // write wins. The cache is an optimization; failures never fail the run.
  const std::string lib_path = scenario_dir(scenario) + "/" + cell_name + ".lib";
  (void)util::write_file_atomic_nothrow(lib_path, liberty::write_library(single));
  touch_usage_stamp(lib_path);
}

const liberty::Cell& LibraryFactory::cell(const std::string& cell_name,
                                          const aging::AgingScenario& scenario) {
  // Nothing claimed yet, so throwing here is always safe; this is what makes
  // a tripped token stop a warm-cache library assembly promptly.
  flow::throw_if_cancelled();
  const CellKey key{scenario.id(), cell_name};
  std::shared_ptr<CellJob> job;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (const auto it = cell_cache_.find(key); it != cell_cache_.end()) return it->second;
      if (const auto q = quarantine_.find(key); q != quarantine_.end()) {
        // Fail fast with the recorded chain; no SPICE is re-run for a pair
        // that already failed permanently (this run or a resumed one).
        throw CharError(cell_name, "quarantined scenario=" + key.first, q->second);
      }
      const auto in = in_flight_.find(key);
      if (in == in_flight_.end()) break;
      // Another thread is characterizing this (scenario, cell): wait for it
      // instead of duplicating the SPICE work. The wait polls cancellation so
      // a tripped token (deadline, signal, chaos drill) wakes waiters with a
      // structured error even while the leader is stuck in a long solve.
      const std::shared_ptr<CellJob> pending = in->second;
      while (!cv_.wait_for(lock, std::chrono::milliseconds(50),
                           [&] { return pending->done; })) {
        if (flow::poll_cancellation()) {
          throw flow::CancelledError("factory: cancelled while waiting for in-flight " +
                                     cell_name + " (" + key.first + ")");
        }
      }
      if (const auto& e = pending->char_error) throw CharError((*e)[0], (*e)[1], (*e)[2]);
      if (pending->error) std::rethrow_exception(pending->error);
      // Re-check the cache (and any newer in-flight entry) from the top.
    }
    job = std::make_shared<CellJob>();
    in_flight_.emplace(key, job);
  }

  liberty::Cell result;
  bool from_disk = false;
  try {
    result = build_cell(cell_name, scenario, from_disk);
  } catch (...) {
    finalize_failure(key, job, std::current_exception());
    throw;
  }
  return finalize_success(key, job, std::move(result), !from_disk);
}

const liberty::Cell& LibraryFactory::finalize_success(const CellKey& key,
                                                      const std::shared_ptr<CellJob>& job,
                                                      liberty::Cell cell, bool checkpoint) {
  const liberty::Cell* ref = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ref = &cell_cache_.emplace(key, std::move(cell)).first->second;
    manifest_.record_done(key.first, key.second, static_cast<int>(ref->fallbacks.size()));
    if (checkpoint) manifest_.save();
    job->done = true;
    in_flight_.erase(key);
  }
  cv_.notify_all();
  return *ref;
}

void LibraryFactory::finalize_failure(const CellKey& key, const std::shared_ptr<CellJob>& job,
                                      std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job->done = true;
    in_flight_.erase(key);
    try {
      std::rethrow_exception(error);
    } catch (const CharError& e) {
      // A CharError is a permanent failure (the solver already exhausted
      // its retry ladder): quarantine the pair and checkpoint it so a
      // resumed run fails fast instead of repeating hours of SPICE.
      job->char_error = {e.cell(), e.context(), e.detail()};
      quarantine_[key] = e.what();
      manifest_.record_failed(key.first, key.second, e.what());
      manifest_.save();
    } catch (...) {
      // Transient failures (I/O, bad_alloc, ...) are not quarantined.
      job->error = error;
    }
  }
  cv_.notify_all();
}

std::vector<aging::AgingScenario> LibraryFactory::direct_scenarios(
    const aging::AgingScenario& scenario) const {
  const AdaptiveGridOptions& adaptive = options_.characterize.adaptive;
  if (!adaptive.enabled || on_lattice(scenario, adaptive.lattice_step)) return {scenario};
  return lattice_bracket(scenario, adaptive.lattice_step).corners;
}

liberty::Cell LibraryFactory::build_cell(const std::string& cell_name,
                                         const aging::AgingScenario& scenario,
                                         bool& from_disk) {
  from_disk = true;
  // Honor cancellation even on the all-disk-hit path: a SIGTERM during a
  // large library load used to be noticed only at the next parallel_for
  // poll, which never comes when every cell is a cache hit.
  flow::throw_if_cancelled();
  const std::string lib_path = cell_lib_path(cell_name, scenario);
  if (!lib_path.empty()) {
    if (auto cached = load_cached_cell(lib_path, cell_name)) return std::move(*cached);
  }
  if (options_.disk_only) throw CacheMissError(scenario.id(), cell_name);
  from_disk = false;

  const AdaptiveGridOptions& adaptive = options_.characterize.adaptive;
  if (adaptive.enabled && !on_lattice(scenario, adaptive.lattice_step)) {
    // Off-lattice corner: interpolate between the bracketing lattice corners
    // (recursing via cell() — lattice corners characterize directly, so the
    // recursion terminates and never self-waits). Corner references stay
    // valid for the factory's lifetime.
    const LatticeBracket bracket = lattice_bracket(scenario, adaptive.lattice_step);
    std::vector<const liberty::Cell*> corners;
    corners.reserve(bracket.corners.size());
    for (const auto& corner : bracket.corners) corners.push_back(&cell(cell_name, corner));
    InterpolatedCell interp = interpolate_cell(bracket, corners);
    if (interp.bound_ps <= adaptive.interp_tol_ps) {
      std::uint64_t tables = 0;
      for (const auto& arc : interp.cell.arcs) {
        tables += static_cast<std::uint64_t>(!arc.rise.empty()) +
                  static_cast<std::uint64_t>(!arc.fall.empty());
      }
      stats::add_cell_interpolated(tables * options_.characterize.grid.size());
      if (!options_.cache_dir.empty()) store_cached_cell(scenario, cell_name, interp.cell);
      return std::move(interp.cell);
    }
    // Certified bound too loose for the flow tolerance: refine — fall
    // through to a direct characterization of this exact corner.
    stats::add_corner_refined();
  }

  if (lib_path.empty()) {
    return characterize_cell(cells::find_cell(cell_name), scenario, options_.characterize);
  }

  // Cross-process leader election on the cache entry's lease file: exactly
  // one process (across every CLI / rwserved worker sharing this cache dir)
  // runs the SPICE campaign; everyone else rendezvouses on the published
  // cache file. The kernel drops a dead leader's lock, so a `kill -9`
  // mid-characterization hands the pair to the next poller, never wedges it.
  const std::string lease_path = lib_path + ".lease";
  for (;;) {
    if (auto lease = util::FileLease::try_acquire(lease_path)) {
      // Re-probe under the lease: a prior leader may have published between
      // our miss above and this acquire (the classic release/acquire race —
      // without this, two forked clients can both run the campaign).
      if (auto cached = load_cached_cell(lib_path, cell_name)) {
        lease->release();
        from_disk = true;
        return std::move(*cached);
      }
      liberty::Cell result =
          characterize_cell(cells::find_cell(cell_name), scenario, options_.characterize);
      // Publish before releasing the lease, so a follower never observes
      // "no lease and no file" after a successful leader.
      store_cached_cell(scenario, cell_name, result);
      lease->release();
      return result;
    }
    // Follower: poll for the leader's publish (cheap — one exists() probe
    // until the file lands), taking over if the leader died.
    flow::throw_if_cancelled();
    if (auto cached = load_cached_cell(lib_path, cell_name)) {
      from_disk = true;
      return std::move(*cached);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void LibraryFactory::characterize_batch(
    const std::vector<std::pair<aging::AgingScenario, std::string>>& pairs) {
  /// One claimed pair: either live SPICE work in the flat queue (leader,
  /// `work` set, holding `lease` when the disk cache is on) or a
  /// cross-process rendezvous on another process's lease (`work` null; the
  /// finish phase waits for — or takes over — that process's cache publish).
  struct BatchItem {
    CellKey key;
    aging::AgingScenario scenario;
    std::shared_ptr<CellJob> job;
    std::optional<util::FileLease> lease;
    std::unique_ptr<CellCharJob> work;
    std::size_t first_task = 0;   ///< offset of this item's tasks in the queue
    std::size_t error_task = 0;   ///< lowest failing task index (determinism)
    std::exception_ptr task_error;
  };

  std::exception_ptr first_error;  // first non-CharError, in pair order
  auto note_failure = [&first_error](std::exception_ptr failure) {
    if (first_error) return;
    try {
      std::rethrow_exception(std::move(failure));
    } catch (const CharError&) {
      // Quarantined; callers see it when they request the pair.
    } catch (...) {
      first_error = std::current_exception();
    }
  };

  // Rounds of claim, fan-out and finish, each holding at most
  // `max_leases` leases (see lease_budget). Every pair's result is
  // independent of the round it lands in, so the output is too.
  const std::size_t max_leases = lease_budget();
  std::size_t next = 0;
  while (next < pairs.size() && !flow::poll_cancellation()) {
    // Claim phase (serial): register an in-flight job per pair not already
    // cached/quarantined/claimed, serve disk-cache hits immediately, and
    // build the per-cell task queues. Construction failures (unknown cell,
    // topology bug) finalize here so waiters are never left hanging.
    std::vector<std::unique_ptr<BatchItem>> items;
    std::size_t leases = 0;
    // Cancellation: stop CLAIMING (never throw mid-claim — already claimed
    // pairs must still be finalized below so their waiters are released).
    // The fan-out tasks and the finish phase poll the token themselves.
    for (; next < pairs.size() && leases < max_leases && !flow::poll_cancellation(); ++next) {
      const auto& [scenario, name] = pairs[next];
      const CellKey key{scenario.id(), name};
      std::shared_ptr<CellJob> job;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (cell_cache_.count(key) != 0 || quarantine_.count(key) != 0 ||
            in_flight_.count(key) != 0) {
          continue;  // done, failed-fast, or another thread/batch owns it
        }
        job = std::make_shared<CellJob>();
        in_flight_.emplace(key, job);
      }
      auto item = std::make_unique<BatchItem>();
      item->key = key;
      item->scenario = scenario;
      item->job = std::move(job);
      try {
        if (!options_.cache_dir.empty()) {
          const std::string lib_path = cell_lib_path(name, scenario);
          if (auto cached = load_cached_cell(lib_path, name)) {
            finalize_success(item->key, item->job, std::move(*cached), false);
            continue;
          }
          if (options_.disk_only) throw CacheMissError(key.first, name);
          // Cross-process leader election (see build_cell): no lease means
          // some other process owns the pair — register a rendezvous item
          // instead of duplicating its SPICE campaign.
          item->lease = util::FileLease::try_acquire(lib_path + ".lease");
          if (!item->lease) {
            items.push_back(std::move(item));  // rendezvous in the finish phase
            continue;
          }
          // Re-probe under the lease: the prior leader may have published
          // between our miss above and this acquire.
          if (auto cached = load_cached_cell(lib_path, name)) {
            item->lease.reset();
            finalize_success(item->key, item->job, std::move(*cached), false);
            continue;
          }
        }
        item->work = std::make_unique<CellCharJob>(cells::find_cell(name), scenario,
                                                   options_.characterize);
      } catch (...) {
        finalize_failure(item->key, item->job, std::current_exception());
        note_failure(std::current_exception());
        continue;
      }
      if (item->lease) ++leases;
      items.push_back(std::move(item));
    }

    // Fan-out phase: ONE top-level parallel_for over the concatenation of
    // every item's task queue — the scheduler sees (scenario × cell × arc ×
    // OPC) granularity, so a 61-cell library keeps every worker busy instead
    // of serializing nested per-cell loops. Task exceptions are captured per
    // item (lowest task index wins, for determinism) so one failing cell
    // cannot abandon the others mid-queue.
    std::size_t total_tasks = 0;
    std::vector<std::size_t> task_end;  // cumulative, for task -> item lookup
    task_end.reserve(items.size());
    for (auto& item : items) {
      item->first_task = total_tasks;
      // Rendezvous items (another process characterizes) contribute no local
      // tasks; their zero-width interval is skipped by the lookup below.
      total_tasks += item->work ? item->work->task_count() : 0;
      task_end.push_back(total_tasks);
    }
    std::mutex error_mutex;
    util::ThreadPool::shared().parallel_for(total_tasks, [&](std::size_t task) {
      const std::size_t idx = static_cast<std::size_t>(
          std::upper_bound(task_end.begin(), task_end.end(), task) - task_end.begin());
      BatchItem& item = *items[idx];
      try {
        item.work->run_task(task - item.first_task);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!item.task_error || task < item.error_task) {
          item.task_error = std::current_exception();
          item.error_task = task;
        }
      }
    });

    // Finish phase (serial, deterministic item order): assemble each cell —
    // fallback interpolation and the flop setup search happen here — publish
    // it, and release waiters. Every item is finalized even when another
    // failed; only then is the first non-CharError failure rethrown. The
    // manifest is saved once per round if this process characterized any
    // pair in it (quarantines save at once, in finalize_failure).
    bool characterized = false;
    for (auto& item : items) {
      std::exception_ptr failure = item->task_error;
      if (!failure) {
        try {
          if (!item->work) {
            // Rendezvous item: another process held the lease at claim time.
            // build_cell waits for its publish — or takes over (this process
            // becomes leader) if that process died and the kernel freed it.
            bool from_disk = false;
            liberty::Cell cell = build_cell(item->key.second, item->scenario, from_disk);
            characterized = characterized || !from_disk;
            finalize_success(item->key, item->job, std::move(cell), false);
            continue;
          }
          liberty::Cell cell = item->work->finish();
          if (!options_.cache_dir.empty()) {
            store_cached_cell(item->scenario, item->key.second, cell);
          }
          item->lease.reset();  // publish happened; let followers take the file
          characterized = true;
          finalize_success(item->key, item->job, std::move(cell), false);
          continue;
        } catch (...) {
          failure = std::current_exception();
        }
      }
      item->lease.reset();
      finalize_failure(item->key, item->job, failure);
      note_failure(failure);
    }
    if (characterized) {
      std::lock_guard<std::mutex> lock(mutex_);
      manifest_.save();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

const liberty::Library& LibraryFactory::library(const aging::AgingScenario& scenario) {
  const std::string id = scenario.id();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = library_cache_.find(id); it != library_cache_.end()) return *it->second;
  }

  // Characterize every needed (lattice) corner through one flat task queue;
  // the in-flight table keeps concurrent library() calls for the same
  // scenario from duplicating any cell.
  const std::vector<std::string> names = cell_names();
  std::vector<std::pair<aging::AgingScenario, std::string>> pairs;
  for (const auto& direct : direct_scenarios(scenario)) {
    for (const auto& name : names) pairs.emplace_back(direct, name);
  }
  characterize_batch(pairs);

  // Assemble in catalog order from the (now warm) cache: deterministic for
  // any thread count. Off-lattice adaptive scenarios interpolate (or refine)
  // here, against the corners the batch just characterized.
  auto lib = std::make_unique<liberty::Library>("reliaware_" + id);
  for (const auto& name : names) lib->add_cell(cell(name, scenario));

  std::lock_guard<std::mutex> lock(mutex_);
  // First inserter wins; a losing thread built an identical library from the
  // same cached cells, so dropping it is safe.
  return *library_cache_.try_emplace(id, std::move(lib)).first->second;
}

liberty::Library LibraryFactory::merged(const std::vector<aging::AgingScenario>& scenarios) {
  const std::vector<std::string> names = cell_names();

  // One flat (scenario × cell × arc × OPC) task queue through the shared
  // cell cache: pairs characterized earlier — via cell(), library(), or a
  // previous merged() — are cache hits and are never rebuilt. Permanent
  // failures are tolerated here (the batch quarantines them and the assembly
  // below skips them); anything else still aborts the merge. Under the
  // adaptive grid, only the distinct lattice corners enter the queue.
  std::vector<std::pair<aging::AgingScenario, std::string>> pairs;
  std::set<CellKey> seen;
  for (const auto& s : scenarios) {
    for (const auto& direct : direct_scenarios(s)) {
      for (const auto& name : names) {
        if (seen.insert(CellKey{direct.id(), name}).second) pairs.emplace_back(direct, name);
      }
    }
  }
  characterize_batch(pairs);

  // Reuse memoized full libraries where they exist; otherwise assemble a
  // local library from cached cells without growing the library memo.
  std::vector<liberty::Library> local;
  local.reserve(scenarios.size());
  std::vector<liberty::ScenarioLibrary> parts;
  parts.reserve(scenarios.size());
  for (const auto& s : scenarios) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (const auto it = library_cache_.find(s.id()); it != library_cache_.end()) {
        parts.push_back({s, it->second.get()});
        continue;
      }
    }
    liberty::Library lib("reliaware_" + s.id());
    for (const auto& name : names) {
      try {
        lib.add_cell(cell(name, s));
      } catch (const CharError&) {
        // Quarantined corner: the merged library simply lacks this
        // (cell, λp, λn) variant; synthesis falls back to healthy corners.
      }
    }
    local.push_back(std::move(lib));
    parts.push_back({s, &local.back()});
  }
  return liberty::merge_libraries(parts);
}

}  // namespace rw::charlib
