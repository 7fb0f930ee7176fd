#include "flow/orchestrator.hpp"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace rw::flow {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestFile = "flow_manifest.json";

/// Reads flow_manifest.json. False with `error` set when it is unreadable
/// or malformed; callers start fresh (resume) or report FL001 (lint).
bool read_manifest(const std::string& path, std::string& flow, std::vector<ManifestStage>& stages,
                   std::string& error) {
  const auto read_stage = [&stages](util::json::Reader& r) {
    ManifestStage st;
    if (!r.object([&st](util::json::Reader& r, std::string_view key) {
          if (key == "index") return r.integer(st.index);
          if (key == "name") return r.string(st.name);
          if (key == "status") return r.string(st.status);
          if (key == "artifact") return r.string(st.artifact);
          if (key == "bytes") return r.integer(st.bytes);
          if (key == "wall_ms") return r.number(st.wall_ms);
          return r.skip();
        })) {
      return false;
    }
    stages.push_back(std::move(st));
    return true;
  };
  const auto member = [&](util::json::Reader& r, std::string_view key) {
    if (key == "flow") return r.string(flow);
    if (key == "stages") return r.array(read_stage);
    return r.skip();
  };
  return util::json::parse_object_file(path, error, member);
}

}  // namespace

OrchestratorOptions OrchestratorOptions::from_env() {
  OrchestratorOptions o;
  if (const char* env = std::getenv("RW_FLOW_DIR"); env != nullptr && *env != '\0') o.dir = env;
  if (const char* env = std::getenv("RW_FLOW_RESUME"); env != nullptr && *env != '\0') {
    o.resume = std::string(env) != "0";
  }
  return o;
}

FlowOrchestrator::FlowOrchestrator(std::string flow_name, OrchestratorOptions options)
    : options_(std::move(options)), start_(std::chrono::steady_clock::now()) {
  report_.flow = std::move(flow_name);
  if (enabled() && options_.report_path.empty()) {
    options_.report_path = options_.dir + "/run_report.json";
  }
  if (enabled() && options_.resume) {
    std::string flow;
    std::string error;
    // Missing or corrupt manifest: a fresh run, never a refusal to run.
    if (!read_manifest(options_.dir + "/" + kManifestFile, flow, manifest_, error) ||
        flow != report_.flow) {
      manifest_.clear();
    }
  }
}

FlowOrchestrator::~FlowOrchestrator() {
  try {
    finish();
  } catch (...) {
    // Destructor (possibly during unwinding): reporting is best-effort.
  }
}

double FlowOrchestrator::elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string FlowOrchestrator::artifact_name(int index, const std::string& name) const {
  char prefix[8];
  std::snprintf(prefix, sizeof prefix, "%02d_", index);
  return prefix + name + ".art";
}

bool FlowOrchestrator::load_stage(int index, const std::string& name,
                                  const std::string& artifact, std::string& encoded) const {
  for (const ManifestStage& s : manifest_) {
    if (s.index != index || s.name != name || s.status != "done" || s.artifact != artifact) {
      continue;
    }
    const std::string path = options_.dir + "/" + artifact;
    std::error_code ec;
    if (!fs::exists(path, ec) || fs::file_size(path, ec) != s.bytes) return false;
    return util::read_file(path, encoded) && encoded.size() == s.bytes;
  }
  return false;
}

void FlowOrchestrator::persist_stage(int index, const std::string& name,
                                     const std::string& artifact, const std::string& encoded,
                                     double wall_ms) {
  if (util::write_file_atomic_nothrow(options_.dir + "/" + artifact, encoded)) {
    // Drop any stale record for this index (a previous run that diverged),
    // then append and atomically republish the manifest.
    std::erase_if(manifest_, [&](const ManifestStage& s) { return s.index >= index; });
    manifest_.push_back(ManifestStage{index, name, "done", artifact, encoded.size(), wall_ms});
    save_manifest();
  }
  if (options_.kill_after_stage == index) {
    std::raise(SIGKILL);  // test hook: crash exactly at this stage boundary
  }
}

void FlowOrchestrator::save_manifest() const {
  std::string out = "{\"flow\":";
  util::append_json_string(out, report_.flow);
  out += ",\"stages\":[";
  for (std::size_t i = 0; i < manifest_.size(); ++i) {
    const ManifestStage& s = manifest_[i];
    if (i != 0) out += ',';
    out += "{\"index\":" + std::to_string(s.index) + ",\"name\":";
    util::append_json_string(out, s.name);
    out += ",\"status\":";
    util::append_json_string(out, s.status);
    out += ",\"artifact\":";
    util::append_json_string(out, s.artifact);
    char wall[64];
    std::snprintf(wall, sizeof wall, "%.3f", s.wall_ms);
    out += ",\"bytes\":" + std::to_string(s.bytes) + ",\"wall_ms\":" + wall + "}";
  }
  out += "]}\n";
  (void)util::write_file_atomic_nothrow(options_.dir + "/" + kManifestFile, out);
}

void FlowOrchestrator::record_stage(const std::string& name, const std::string& status,
                                    double wall_ms, const std::string& artifact,
                                    std::size_t bytes, const std::string& error) {
  StageReport s;
  s.name = name;
  s.status = status;
  s.wall_ms = wall_ms;
  s.artifact = artifact;
  s.artifact_bytes = bytes;
  s.error = error;
  report_.stages.push_back(std::move(s));
}

void FlowOrchestrator::record_exception(const std::string& name, double wall_ms) {
  try {
    throw;  // re-inspect the in-flight exception
  } catch (const CancelledError& e) {
    record_stage(name, "cancelled", wall_ms, "", 0, e.what());
    report_.status = "cancelled";
    report_.cancel_reason = e.reason();
  } catch (const std::exception& e) {
    record_stage(name, "failed", wall_ms, "", 0, e.what());
    report_.status = "failed";
  } catch (...) {
    record_stage(name, "failed", wall_ms, "", 0, "unknown exception");
    report_.status = "failed";
  }
}

int FlowOrchestrator::finish() {
  if (!finished_) {
    finished_ = true;
    if (report_.status == "ok" && (report_.fallbacks > 0 || report_.quarantined > 0)) {
      report_.status = "degraded";
    }
    report_.wall_ms = elapsed_ms(start_);
    if (!options_.report_path.empty()) (void)report_.save(options_.report_path);
  }
  return report_.exit_code();
}

std::vector<lint::Diagnostic> lint_flow_manifest(const std::string& manifest_path) {
  std::vector<lint::Diagnostic> out;
  const auto warn = [&](const std::string& location, const std::string& message) {
    lint::Diagnostic d;
    d.rule_id = lint::rules::kFlowStaleArtifact;
    d.severity = lint::Severity::kWarning;
    d.location = location;
    d.message = message;
    d.fix_hint = "delete the flow directory (or the stage file) so the stage recomputes";
    out.push_back(std::move(d));
  };

  std::string flow;
  std::vector<ManifestStage> stages;
  std::string error;
  if (!read_manifest(manifest_path, flow, stages, error)) {
    warn(manifest_path, "flow manifest is unreadable or malformed: " + error);
    return out;
  }
  const std::string dir = fs::path(manifest_path).parent_path().string();
  for (const ManifestStage& s : stages) {
    if (s.status != "done") continue;
    const std::string path = dir.empty() ? s.artifact : dir + "/" + s.artifact;
    std::error_code ec;
    if (!fs::exists(path, ec)) {
      warn(flow + ":" + s.name,
           "stage " + std::to_string(s.index) + " artifact " + s.artifact + " is missing");
    } else if (fs::file_size(path, ec) != s.bytes) {
      warn(flow + ":" + s.name, "stage " + std::to_string(s.index) + " artifact " + s.artifact +
                                    " is stale (size " + std::to_string(fs::file_size(path, ec)) +
                                    ", manifest says " + std::to_string(s.bytes) + ")");
    }
  }
  return out;
}

}  // namespace rw::flow
