#pragma once

/// \file orchestrator.hpp
/// Crash-only orchestration for the multi-stage flows: each flow runs as a
/// sequence of named stages whose outputs are persisted via atomic
/// temp+rename into a flow directory with a JSON manifest, so `kill -9` at
/// any point followed by RW_FLOW_RESUME=1 completes the run with finished
/// stages served from disk — bitwise identical to an uninterrupted run.
///
/// The bitwise guarantee comes from one rule: whenever orchestration is
/// enabled, a stage's consumers always receive the *decoded artifact*, never
/// the freshly computed object. Computing and resuming therefore feed every
/// downstream stage exactly the same bytes (the codecs in artifact.hpp are
/// hexfloat-exact). With orchestration disabled (no flow directory), stage()
/// returns the computed value directly and no serialization happens at all —
/// pre-orchestrator behavior, bit for bit.
///
/// Layout of a flow directory:
///   flow_manifest.json   {"flow":..., "stages":[{index,name,status,
///                         artifact,bytes,wall_ms}, ...]}   (atomic rewrite
///                         after every completed stage)
///   NN_<stage>.art       stage artifacts (atomic temp+rename)
///   run_report.json      RunReport of the last run over this directory

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "flow/cancel.hpp"
#include "flow/run_report.hpp"
#include "lint/diagnostic.hpp"

namespace rw::flow {

struct OrchestratorOptions {
  /// Flow directory for checkpoints + reports. Empty = orchestration
  /// disabled (stages run inline; nothing is written).
  std::string dir;
  /// Serve completed stages recorded in the flow manifest from disk.
  bool resume = false;
  /// Where the RunReport lands; defaults to `<dir>/run_report.json`.
  std::string report_path;
  /// Test hook: raise(SIGKILL) immediately after persisting the stage with
  /// this 0-based index (simulates a crash at a stage boundary). -1 = off.
  int kill_after_stage = -1;

  /// RW_FLOW_DIR (directory, enables orchestration) and RW_FLOW_RESUME
  /// (resume when set and not "0").
  static OrchestratorOptions from_env();
};

/// One stage record of flow_manifest.json.
struct ManifestStage {
  int index = -1;  ///< -1 when the record has none: it matches no stage
  std::string name;
  std::string status;
  std::string artifact;
  std::size_t bytes = 0;
  double wall_ms = 0.0;
};

/// One flow run. Stages are declared in order via `stage()`; the destructor
/// (or an explicit `finish()`) seals the RunReport and writes it.
class FlowOrchestrator {
 public:
  FlowOrchestrator(std::string flow_name, OrchestratorOptions options);
  ~FlowOrchestrator();
  FlowOrchestrator(const FlowOrchestrator&) = delete;
  FlowOrchestrator& operator=(const FlowOrchestrator&) = delete;

  [[nodiscard]] bool enabled() const { return !options_.dir.empty(); }

  /// Runs one named stage.
  ///  - disabled: returns `compute()` directly (no encode/decode);
  ///  - enabled, manifest hit (resume): returns `decode(file contents)`;
  ///  - enabled, fresh: computes, persists `encode(value)` atomically,
  ///    updates the manifest, and returns `decode(encoded)` — the round
  ///    trip keeps fresh and resumed runs bitwise identical.
  /// Failures and cancellations are recorded in the RunReport and rethrown.
  template <typename Compute, typename Encode, typename Decode>
  auto stage(const std::string& name, Compute&& compute, Encode&& encode, Decode&& decode)
      -> decltype(compute()) {
    const int index = next_stage_index_++;
    const auto t0 = std::chrono::steady_clock::now();
    if (!enabled()) {
      try {
        auto value = compute();
        record_stage(name, "done", elapsed_ms(t0), "", 0, "");
        return value;
      } catch (...) {
        record_exception(name, elapsed_ms(t0));
        throw;
      }
    }
    const std::string artifact = artifact_name(index, name);
    if (options_.resume) {
      std::string encoded;
      if (load_stage(index, name, artifact, encoded)) {
        try {
          auto value = decode(encoded);
          record_stage(name, "cached", elapsed_ms(t0), artifact, encoded.size(), "");
          return value;
        } catch (const std::exception&) {
          // Corrupt/stale checkpoint: fall through and recompute the stage.
        }
      }
    }
    try {
      auto value = compute();
      const std::string encoded = encode(value);
      persist_stage(index, name, artifact, encoded, elapsed_ms(t0));
      record_stage(name, "done", elapsed_ms(t0), artifact, encoded.size(), "");
      return decode(encoded);
    } catch (...) {
      record_exception(name, elapsed_ms(t0));
      throw;
    }
  }

  /// Mutable run report (flows fill fallback/quarantine counters).
  [[nodiscard]] RunReport& report() { return report_; }

  /// Seals status from the stage records + degradation counters, stamps the
  /// total wall time, and writes the report. Idempotent; returns exit_code().
  int finish();

 private:
  static double elapsed_ms(std::chrono::steady_clock::time_point t0);
  [[nodiscard]] std::string artifact_name(int index, const std::string& name) const;
  /// True when the manifest marks (index, name) done and the artifact file
  /// exists with the recorded size; loads its contents into `encoded`.
  bool load_stage(int index, const std::string& name, const std::string& artifact,
                  std::string& encoded) const;
  /// Atomically writes the artifact and rewrites the flow manifest; then
  /// fires the kill_after_stage test hook.
  void persist_stage(int index, const std::string& name, const std::string& artifact,
                     const std::string& encoded, double wall_ms);
  void record_stage(const std::string& name, const std::string& status, double wall_ms,
                    const std::string& artifact, std::size_t bytes, const std::string& error);
  void record_exception(const std::string& name, double wall_ms);
  void save_manifest() const;

  OrchestratorOptions options_;
  std::chrono::steady_clock::time_point start_;
  int next_stage_index_ = 0;
  bool finished_ = false;
  std::vector<ManifestStage> manifest_;  ///< completed stages (loaded + this run)
  RunReport report_;
};

/// FL001: checks a flow manifest's stage records against the artifacts on
/// disk (missing file, size mismatch, unparsable manifest). Used by rwlint
/// --flow-manifest.
std::vector<lint::Diagnostic> lint_flow_manifest(const std::string& manifest_path);

}  // namespace rw::flow
