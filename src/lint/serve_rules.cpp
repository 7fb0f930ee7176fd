#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "lint/linter.hpp"
#include "util/io.hpp"
#include "util/proc_lease.hpp"

namespace rw::lint {

namespace {

namespace fs = std::filesystem;

/// SV001 over the characterization service's disk-cache root.
///
/// The serve data plane leaves two kinds of droppings behind when processes
/// die uncleanly: `*.lease` files (cross-process dedup leader election; the
/// kernel drops a SIGKILLed leader's lock but its file stays until the next
/// leader releases it) and `*.sock` files (a daemon's listening socket; a
/// SIGKILLed daemon cannot unlink it). Both are harmless to correctness —
/// an unlocked lease file is simply taken over and `listen_unix` rebinds
/// over dead sockets — but they are the forensic signature of a crash, so
/// the linter surfaces them as warnings. Held leases and live sockets are
/// NOT flagged.
class ServeArtifactsRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "serve.artifacts"; }
  [[nodiscard]] std::string_view description() const override {
    return "serve cache holds no unheld worker leases or dead daemon sockets";
  }
  void run(const LintSubject& subject, std::vector<Diagnostic>& out) const override {
    if (subject.cache_dir.empty()) return;
    std::error_code ec;
    if (!fs::is_directory(subject.cache_dir, ec)) {
      out.push_back(Diagnostic{rules::kStaleServeArtifact, Severity::kWarning,
                               subject.cache_dir, "cache directory does not exist",
                               "point --cache-dir at a characterization cache root"});
      return;
    }
    // Directory iteration order is unspecified; sort for a deterministic
    // report (the linter's contract).
    std::vector<std::string> leases;
    std::vector<std::string> sockets;
    for (fs::recursive_directory_iterator it(subject.cache_dir, ec), end;
         !ec && it != end; it.increment(ec)) {
      const std::string path = it->path().string();
      if (it->is_regular_file(ec) && path.ends_with(".lease")) leases.push_back(path);
      if (it->is_socket(ec) && path.ends_with(".sock")) sockets.push_back(path);
    }
    std::sort(leases.begin(), leases.end());
    std::sort(sockets.begin(), sockets.end());

    for (const std::string& path : leases) {
      if (util::held(path)) continue;  // a live leader
      out.push_back(Diagnostic{rules::kStaleServeArtifact, Severity::kWarning, path,
                               "characterization lease file that no process holds (crash debris)",
                               "safe to delete; the next leader takes it over automatically"});
    }
    for (const std::string& path : sockets) {
      const int fd = util::io::connect_unix(path);
      if (fd >= 0) {
        ::close(fd);  // a live daemon answers; nothing to report
        continue;
      }
      out.push_back(Diagnostic{rules::kStaleServeArtifact, Severity::kWarning, path,
                               "socket file refuses connections (no live daemon bound)",
                               "safe to delete; rwserved rebinds over dead sockets on start"});
    }
  }
};

/// SV002 over the same cache root: debris of the GC protocol (gc.hpp).
///
/// A healthy entry is the pair `<cell>.lib` + `<cell>.lib.stamp`; eviction
/// writes `<cell>.lib.tomb`, removes both, then removes the tombstone. So
/// three shapes are forensic evidence:
///   * a `.lib.tomb` — a sweep was killed mid-eviction (the next sweep, or
///     `rwserved --gc`, completes it; until then the entry must not be
///     trusted);
///   * a `.lib.stamp` without its `.lib` — an orphan sidecar (crash between
///     eviction steps 2 and 3, or a hand-deleted entry);
///   * a `.lib` without its `.lib.stamp` — an unstamped entry (pre-GC cache
///     or a crash right after publish); GC falls back to the lib's own
///     mtime, so idle aging still works, just without usage refresh.
/// All three are correctness-harmless and severity kWarning.
class GcArtifactsRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "serve.gc_artifacts"; }
  [[nodiscard]] std::string_view description() const override {
    return "serve cache holds no interrupted-GC tombstones or mismatched usage stamps";
  }
  void run(const LintSubject& subject, std::vector<Diagnostic>& out) const override {
    if (subject.cache_dir.empty()) return;
    std::error_code ec;
    if (!fs::is_directory(subject.cache_dir, ec)) return;  // SV001 already reports this
    std::vector<std::string> libs;
    std::vector<std::string> stamps;
    std::vector<std::string> tombs;
    for (fs::recursive_directory_iterator it(subject.cache_dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      if (!it->is_regular_file(ec)) continue;
      const std::string path = it->path().string();
      if (path.ends_with(".lib")) libs.push_back(path);
      if (path.ends_with(".lib.stamp")) stamps.push_back(path);
      if (path.ends_with(".lib.tomb")) tombs.push_back(path);
    }
    std::sort(libs.begin(), libs.end());
    std::sort(stamps.begin(), stamps.end());
    std::sort(tombs.begin(), tombs.end());
    const auto have = [](const std::vector<std::string>& sorted, const std::string& path) {
      return std::binary_search(sorted.begin(), sorted.end(), path);
    };

    for (const std::string& path : tombs) {
      out.push_back(Diagnostic{rules::kOrphanGcArtifact, Severity::kWarning, path,
                               "GC tombstone left by an interrupted sweep",
                               "run `rwserved --gc --cache <root>` to complete the eviction"});
    }
    for (const std::string& path : stamps) {
      const std::string lib = path.substr(0, path.size() - 6);  // drop ".stamp"
      if (have(libs, lib)) continue;
      if (have(tombs, lib + ".tomb")) continue;  // the tombstone diag covers it
      out.push_back(Diagnostic{rules::kOrphanGcArtifact, Severity::kWarning, path,
                               "usage stamp without its cache entry (" + lib + " is gone)",
                               "safe to delete; the stamp is recreated on the next publish"});
    }
    for (const std::string& path : libs) {
      if (have(stamps, path + ".stamp")) continue;
      if (have(tombs, path + ".tomb")) continue;
      out.push_back(Diagnostic{rules::kOrphanGcArtifact, Severity::kWarning, path,
                               "cache entry without a usage stamp (GC ages it by file mtime)",
                               "harmless; the next cache hit or publish creates the stamp"});
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> serve_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<ServeArtifactsRule>());
  rules.push_back(std::make_unique<GcArtifactsRule>());
  return rules;
}

}  // namespace rw::lint
