#include "charlib/manifest.hpp"

#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace rw::charlib {

RunManifest::RunManifest(std::string path) : path_(std::move(path)) {}

RunManifest RunManifest::load(const std::string& path) {
  RunManifest m(path);
  const auto read_entry = [&m](util::json::Reader& r) {
    ManifestEntry e;
    const bool ok = r.object([&e](util::json::Reader& r, std::string_view key) {
      if (key == "scenario") return r.string(e.scenario);
      if (key == "cell") return r.string(e.cell);
      if (key == "status") return r.string(e.status);
      if (key == "fallbacks") return r.integer(e.fallbacks);
      if (key == "error") return r.string(e.error);
      return r.skip();
    });
    if (!ok || e.scenario.empty() || e.cell.empty() ||
        (e.status != "done" && e.status != "failed")) {
      return false;
    }
    auto key = std::make_pair(e.scenario, e.cell);
    m.entries_[std::move(key)] = std::move(e);
    return true;
  };
  std::string error;
  if (!util::json::parse_object_file(path, error, [&](util::json::Reader& r, std::string_view key) {
        return key == "entries" ? r.array(read_entry) : r.skip();
      })) {
    // Missing or corrupt checkpoint (crash mid-write before atomic renames,
    // manual edit): start over rather than refusing to run.
    m.entries_.clear();
  }
  return m;
}

void RunManifest::save() const {
  if (path_.empty()) return;
  std::string out = "{\"entries\":[";
  bool first = true;
  for (const auto& [key, e] : entries_) {
    if (!first) out += ',';
    first = false;
    out += "{\"scenario\":";
    util::append_json_string(out, e.scenario);
    out += ",\"cell\":";
    util::append_json_string(out, e.cell);
    out += ",\"status\":";
    util::append_json_string(out, e.status);
    out += ",\"fallbacks\":" + std::to_string(e.fallbacks) + ",\"error\":";
    util::append_json_string(out, e.error);
    out += '}';
  }
  out += "]}\n";

  // The checkpoint is an optimization; never fail the run over a bad disk.
  (void)util::write_file_atomic_nothrow(path_, out);
}

const ManifestEntry* RunManifest::find(const std::string& scenario,
                                       const std::string& cell) const {
  const auto it = entries_.find(std::make_pair(scenario, cell));
  return it == entries_.end() ? nullptr : &it->second;
}

void RunManifest::record_done(const std::string& scenario, const std::string& cell,
                              int fallbacks) {
  entries_[std::make_pair(scenario, cell)] =
      ManifestEntry{scenario, cell, "done", fallbacks, ""};
}

void RunManifest::record_failed(const std::string& scenario, const std::string& cell,
                                const std::string& error) {
  entries_[std::make_pair(scenario, cell)] =
      ManifestEntry{scenario, cell, "failed", 0, error};
}

std::vector<const ManifestEntry*> RunManifest::entries() const {
  std::vector<const ManifestEntry*> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) out.push_back(&e);
  return out;
}

}  // namespace rw::charlib
