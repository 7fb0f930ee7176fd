#pragma once

/// \file manifest.hpp
/// Checkpoint record for a characterization campaign. The factory writes
/// `manifest.json` next to the disk cache (one per grid tag) recording the
/// status of every (scenario, cell) it has finished:
///
///   {"entries":[
///     {"scenario":"wc10y","cell":"NAND2_X1","status":"done","fallbacks":0,"error":""},
///     {"scenario":"wc10y","cell":"XOR2_X1","status":"failed","fallbacks":0,
///      "error":"characterize XOR2_X1 [...]: ..."}]}
///
/// A killed 121-corner run resumes by reloading the manifest
/// (`LibraryFactory::resume()` / $RW_CHAR_RESUME): "done" pairs are served
/// from the disk cache without re-running SPICE, and "failed" pairs go
/// straight to quarantine, error chain intact. The file is rewritten
/// atomically (temp + rename) so a crash mid-save leaves the previous
/// checkpoint valid.
///
/// The factory records every pair it serves in memory, but rewrites the file
/// only when resume state changes: once per `library()` / `merged()` round
/// that characterized a pair, after each pair `cell()` computes on its own,
/// and at once for every quarantine. A disk-cache hit never writes it, so a
/// warm read leaves the file (bytes and mtime) as a campaign left it.
///
/// RunManifest itself is not thread-safe; the factory serializes access
/// under its own mutex.

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace rw::charlib {

/// Status of one (scenario, cell) characterization.
struct ManifestEntry {
  std::string scenario;  ///< aging scenario id
  std::string cell;
  std::string status;    ///< "done" or "failed"
  int fallbacks = 0;     ///< interpolated OPC points in the finished cell
  std::string error;     ///< failure chain ("" for done entries)
};

class RunManifest {
 public:
  /// An empty manifest that will save to `path` ("" = in-memory only).
  explicit RunManifest(std::string path = {});

  /// Loads `path`; a missing or unparsable file yields an empty manifest
  /// (a corrupt checkpoint must never block a fresh run).
  static RunManifest load(const std::string& path);

  /// Atomically rewrites the manifest file; no-op when the path is empty.
  void save() const;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// nullptr when the pair has no recorded status.
  [[nodiscard]] const ManifestEntry* find(const std::string& scenario,
                                          const std::string& cell) const;

  void record_done(const std::string& scenario, const std::string& cell, int fallbacks);
  void record_failed(const std::string& scenario, const std::string& cell,
                     const std::string& error);

  /// All entries in deterministic (scenario, cell) order.
  [[nodiscard]] std::vector<const ManifestEntry*> entries() const;

 private:
  std::string path_;
  std::map<std::pair<std::string, std::string>, ManifestEntry> entries_;
};

}  // namespace rw::charlib
