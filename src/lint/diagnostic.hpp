#pragma once

/// \file diagnostic.hpp
/// The diagnostic currency of the static-analysis subsystem: every design
/// rule emits `Diagnostic` records (rule id, severity, location, message,
/// optional fix hint), and every consumer — the `rwlint` CLI, the flow
/// pre-flight hooks, `Module::check()` — renders or filters the same type.
/// This header is dependency-free on purpose so low-level modules (e.g.
/// `netlist`) can produce diagnostics without pulling in the rule engine.

#include <string>
#include <string_view>
#include <vector>

namespace rw::lint {

enum class Severity {
  kInfo,     ///< advisory; never fails a run
  kWarning,  ///< suspicious but the flow can proceed
  kError,    ///< the artifact is unusable; flows must refuse it
};

const char* to_string(Severity severity);

/// One finding. `location` is free-form but conventionally
/// "<artifact>:<object>" (e.g. "top:inst u3", "lib:NAND2_X1 arc A").
struct Diagnostic {
  std::string rule_id;  ///< stable id, e.g. "NL001"
  Severity severity = Severity::kError;
  std::string location;
  std::string message;
  std::string fix_hint;  ///< optional "how to repair" guidance

  /// "error[NL001] top:u3: combinational cycle ... (fix: ...)"
  [[nodiscard]] std::string format() const;
};

/// Stable rule-id catalog. Netlist structure ids are also emitted by
/// `netlist::Module::check()`, which cannot depend on the rule engine.
namespace rules {
inline constexpr const char* kCombCycle = "NL001";      ///< combinational cycle
inline constexpr const char* kUndrivenNet = "NL002";    ///< floating/undriven net
inline constexpr const char* kMultiDrivenNet = "NL003"; ///< >1 driver (or driven primary input)
inline constexpr const char* kDanglingOutput = "NL004"; ///< instance output feeds nothing
inline constexpr const char* kUnknownCell = "NL005";    ///< cell not in the library
inline constexpr const char* kPortArity = "NL006";      ///< pin count / connection mismatch
inline constexpr const char* kNegativeNldm = "LB001";   ///< negative or non-finite table value
inline constexpr const char* kNonMonotoneNldm = "LB002"; ///< delay/slew not monotone in load
inline constexpr const char* kGridMismatch = "LB003";   ///< NLDM axes disagree (or != OPC grid)
inline constexpr const char* kMissingArc = "LB004";     ///< input pin without a timing arc
inline constexpr const char* kAgedFasterThanFresh = "LB005"; ///< aged delay < fresh delay
inline constexpr const char* kFallbackPoint = "LB006";  ///< interpolated (rw_fallback) OPC point
inline constexpr const char* kInterpBound = "LB007";    ///< rw_interp bound exceeds flow tolerance
inline constexpr const char* kDutyOutOfRange = "AN001"; ///< λ index outside [0,1]
inline constexpr const char* kMissingCorner = "AN002";  ///< (λp,λn) cell absent from library
inline constexpr const char* kUnannotated = "AN003";    ///< plain cell amid λ-indexed library
inline constexpr const char* kLambdaOutsideBounds = "SP001"; ///< annotated λ outside proven bounds
inline constexpr const char* kProvenConstant = "SP002"; ///< net proven stuck at 0/1
inline constexpr const char* kVacuousBound = "SP003";   ///< declared inputs, yet bound is [0,1]
inline constexpr const char* kToggleOutsideBounds = "AC001"; ///< measured toggle rate outside proven bounds
inline constexpr const char* kProvenQuiet = "AC002";    ///< net proven to (almost) never toggle
inline constexpr const char* kActivityHotspot = "AC003"; ///< toggle lower bound above the hotspot threshold
inline constexpr const char* kFlowStaleArtifact = "FL001"; ///< flow manifest references missing/stale artifact
inline constexpr const char* kGuardbandUnsound = "PV001"; ///< guardband below the proven upper bound
inline constexpr const char* kWideProofInterval = "PV002"; ///< proven interval wider than the slack budget
inline constexpr const char* kVacuousProof = "PV003";   ///< missing in-bounds bracketing corners
inline constexpr const char* kStaleServeArtifact = "SV001"; ///< unheld lease/dead socket in the serve cache
inline constexpr const char* kOrphanGcArtifact = "SV002"; ///< orphaned GC tombstone or usage-stamp sidecar
}  // namespace rules

/// One entry of the stable rule catalog (`rwlint --explain`, README table).
struct RuleInfo {
  const char* id;
  Severity severity;   ///< the severity the rule emits at (its worst, if mixed)
  const char* summary;
  const char* fix_hint;
};

/// Every rule id the toolchain can emit, in catalog order (NL, LB, AN, SP,
/// AC, FL, PV, SV, then CLI-level IO001). Descriptions and hints are the
/// canonical wording.
const std::vector<RuleInfo>& rule_catalog();

/// Catalog entry for `id`, or nullptr for unknown ids.
const RuleInfo* find_rule_info(std::string_view id);

/// Highest severity present (kInfo when empty).
Severity worst_severity(const std::vector<Diagnostic>& diagnostics);

/// Number of diagnostics at exactly `severity`.
std::size_t count(const std::vector<Diagnostic>& diagnostics, Severity severity);

/// One line per diagnostic, `format()`ed.
std::string format_report(const std::vector<Diagnostic>& diagnostics);

/// JSON for tooling: {"diagnostics":[...],"counts":{...},"worst":"..."}.
/// Stable field order; strings are escaped per RFC 8259.
std::string to_json(const std::vector<Diagnostic>& diagnostics);

}  // namespace rw::lint
