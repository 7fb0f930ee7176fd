#include "serve/gc.hpp"

#include <algorithm>
#include <filesystem>
#include <set>
#include <system_error>

#include "charlib/factory.hpp"
#include "charlib/manifest.hpp"
#include "serve/spool.hpp"
#include "util/atomic_file.hpp"
#include "util/proc_lease.hpp"

namespace rw::serve {

namespace fs = std::filesystem;

namespace {

constexpr const char* kTombSuffix = ".tomb";

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Steps 2..4 of the eviction protocol; also how interrupted sweeps are
/// completed (the tombstone is removed LAST, so a crash here just leaves a
/// tombstone for the next sweep).
void complete_tombstone(const std::string& lib_path) {
  std::error_code ec;
  fs::remove(lib_path, ec);
  fs::remove(charlib::LibraryFactory::usage_stamp_path(lib_path), ec);
  fs::remove(lib_path + kTombSuffix, ec);
}

/// Deterministic sorted child directories of `dir` (empty on a missing dir).
std::vector<std::string> subdirs(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
    if (it->is_directory(ec)) out.push_back(it->path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> files_with_suffix(const std::string& dir, const std::string& suffix) {
  std::vector<std::string> out;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const std::string p = it->path().string();
    if (ends_with(p, suffix)) out.push_back(p);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void sweep_grid(const std::string& grid_dir, const GcOptions& opt, GcResult& res) {
  // Pairs a sweep must never evict: manifest-quarantined ("failed") and
  // fleet-spooled (queued on some daemon, possibly one that just crashed
  // and whose work a survivor is about to adopt).
  std::set<std::string> protect;  // "<scenario>/<cell>" keys
  const charlib::RunManifest manifest =
      charlib::RunManifest::load(grid_dir + "/manifest.json");
  for (const charlib::ManifestEntry* e : manifest.entries()) {
    if (e->status == "failed") protect.insert(e->scenario + "/" + e->cell);
  }
  for (const std::string& task_file : list_spool_tasks(spool_dir(grid_dir))) {
    SpoolRecord rec;
    if (read_spool_record(task_file, rec)) protect.insert(rec.task.task);
  }

  for (const std::string& scenario_dir : subdirs(grid_dir)) {
    const std::string scenario_id = fs::path(scenario_dir).filename().string();
    if (scenario_id == "spool") continue;

    // Phase 1: finish what a killed sweep started. Done BEFORE the age
    // pass so a half-evicted entry can never be graded "recent" and kept.
    for (const std::string& tomb : files_with_suffix(scenario_dir, kTombSuffix)) {
      complete_tombstone(tomb.substr(0, tomb.size() - std::string(kTombSuffix).size()));
      ++res.tombstones_completed;
    }

    // Phase 2: age out idle entries.
    for (const std::string& lib : files_with_suffix(scenario_dir, ".lib")) {
      const std::string cell = fs::path(lib).stem().string();
      if (util::held(lib + ".lease")) {
        ++res.skipped_leased;
        continue;
      }
      if (protect.count(scenario_id + "/" + cell) != 0) {
        ++res.skipped_quarantined;
        continue;
      }
      const double idle = std::min(
          file_idle_ms(lib, 0.0),
          file_idle_ms(charlib::LibraryFactory::usage_stamp_path(lib), 1e18));
      if (idle <= std::max(opt.max_age_ms, opt.min_idle_ms)) {
        ++res.skipped_recent;
        continue;
      }
      if (!opt.dry_run) {
        // Step 1: durable intent. If this write fails the entry is simply
        // kept; if we die after it, the next sweep completes the eviction.
        if (!util::write_file_atomic_nothrow(lib + kTombSuffix, "{\"gc\":\"tombstone\"}\n")) {
          continue;
        }
        complete_tombstone(lib);
      }
      ++res.evicted;
    }
  }
}

}  // namespace

std::vector<std::pair<std::string, double>> GcResult::as_pairs() const {
  return {
      {"gc_evicted", static_cast<double>(evicted)},
      {"gc_skipped_leased", static_cast<double>(skipped_leased)},
      {"gc_skipped_quarantined", static_cast<double>(skipped_quarantined)},
      {"gc_skipped_recent", static_cast<double>(skipped_recent)},
      {"gc_tombstones_completed", static_cast<double>(tombstones_completed)},
  };
}

GcResult gc_sweep(const GcOptions& options) {
  GcResult res;
  if (options.cache_dir.empty()) return res;
  for (const std::string& grid_dir : subdirs(options.cache_dir)) {
    sweep_grid(grid_dir, options, res);
  }
  return res;
}

}  // namespace rw::serve
