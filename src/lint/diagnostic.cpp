#include "lint/diagnostic.hpp"

#include <sstream>

#include "util/strings.hpp"

namespace rw::lint {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

std::string Diagnostic::format() const {
  std::string out = std::string(to_string(severity)) + "[" + rule_id + "]";
  if (!location.empty()) out += " " + location + ":";
  out += " " + message;
  if (!fix_hint.empty()) out += " (fix: " + fix_hint + ")";
  return out;
}

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> catalog = {
      {rules::kCombCycle, Severity::kError, "combinational cycle through the listed instances",
       "break the loop with a flop or restructure the logic"},
      {rules::kUndrivenNet, Severity::kError, "net has no driver and is not a primary input",
       "connect a driver or mark the net as an input"},
      {rules::kMultiDrivenNet, Severity::kError, "net has more than one driver (or a driven input)",
       "remove the extra driver; every net has exactly one source"},
      {rules::kDanglingOutput, Severity::kWarning, "instance output feeds no sink and no output port",
       "remove the dead instance or connect its output"},
      {rules::kUnknownCell, Severity::kError, "instance references a cell the library does not hold",
       "fix the cell name or extend the library"},
      {rules::kPortArity, Severity::kError, "instance pin count or connection mismatches the cell",
       "match the fanin list to the cell's input pins, in pin order"},
      {rules::kNegativeNldm, Severity::kError, "NLDM table holds a negative or non-finite value",
       "re-characterize the cell; timing tables must be finite and positive"},
      {rules::kNonMonotoneNldm, Severity::kWarning, "delay/slew not monotone along the load axis",
       "inspect the characterization run for non-converged grid points"},
      {rules::kGridMismatch, Severity::kError, "NLDM axes disagree across arcs or with the OPC grid",
       "characterize every cell on one shared slew/load grid"},
      {rules::kMissingArc, Severity::kError, "input pin has no timing arc to the output",
       "add the missing arc or drop the unused pin"},
      {rules::kAgedFasterThanFresh, Severity::kWarning, "aged delay is below the fresh baseline",
       "check the aging scenario; BTI degradation cannot speed a cell up"},
      {rules::kFallbackPoint, Severity::kWarning, "table entry was interpolated (rw_fallback point)",
       "re-run characterization with a deeper retry ladder to converge the point"},
      {rules::kInterpBound, Severity::kWarning,
       "λ-interpolated cell's certified error bound exceeds the flow tolerance",
       "refine the corner (characterize it directly) or raise RW_CHAR_INTERP_TOL_PS"},
      {rules::kDutyOutOfRange, Severity::kError, "λ index outside [0,1]; a duty cycle is a probability",
       "fix the duty-cycle extraction (or the annotation step's quantization)"},
      {rules::kMissingCorner, Severity::kError, "(λp, λn) corner absent from the merged library",
       "characterize and merge the missing (λp, λn) corner"},
      {rules::kUnannotated, Severity::kWarning, "plain cell amid λ-indexed variants times as fresh",
       "annotate the instance's duty cycles or drop the fresh cell"},
      {rules::kLambdaOutsideBounds, Severity::kError,
       "annotated λ falls outside the statically proven duty-cycle bounds",
       "the simulation/annotation pipeline disagrees with a workload-independent bound; "
       "check duty-cycle extraction, warm-up, and quantization"},
      {rules::kProvenConstant, Severity::kWarning,
       "net is proven stuck at a constant under the declared input model",
       "remove the stuck logic, or widen the primary-input interval if it should toggle"},
      {rules::kVacuousBound, Severity::kInfo,
       "instance λ bound is the full [0,1] despite declared input intervals",
       "reconvergent-fanout widening discarded the information; tighten or decorrelate inputs"},
      {rules::kToggleOutsideBounds, Severity::kError,
       "measured toggle rate falls outside the statically proven activity bounds",
       "the measurement pipeline disagrees with a workload-independent bound; "
       "check the warm-up window, the input model, and the sampling convention"},
      {rules::kProvenQuiet, Severity::kInfo,
       "net is proven to (almost) never toggle under the declared input model",
       "a rejuvenation/clock-gating candidate — or dead logic worth removing"},
      {rules::kActivityHotspot, Severity::kWarning,
       "net's proven toggle lower bound exceeds the activity-hotspot threshold",
       "every admissible workload stresses this net (EM/HCI risk); resize or "
       "restructure the blamed driver, or relax the input model"},
      {rules::kFlowStaleArtifact, Severity::kWarning,
       "flow manifest references a missing or stale stage artifact",
       "delete the flow directory (or the offending stage file) so the stage recomputes"},
      {rules::kGuardbandUnsound, Severity::kError,
       "guardband lies below the proven aged-delay upper bound",
       "raise the guardband above the proven bound, or tighten the input model / λ lattice"},
      {rules::kWideProofInterval, Severity::kWarning,
       "proven delay interval is wider than the slack budget",
       "refine the λ corners feeding the blamed arcs (listed widest first) or raise the budget"},
      {rules::kVacuousProof, Severity::kError,
       "proof is vacuous: an instance is missing in-bounds bracketing lattice corners",
       "characterize (or merge) the missing bracketing corners before trusting the bound"},
      {rules::kStaleServeArtifact, Severity::kWarning,
       "serve cache holds a lease file no process holds or a dead daemon's socket file",
       "safe to delete; an unheld lease file is also taken over by the next leader"},
      {rules::kOrphanGcArtifact, Severity::kWarning,
       "serve cache holds an interrupted-GC tombstone or a mismatched usage-stamp sidecar",
       "run `rwserved --gc` to complete interrupted sweeps; orphan stamps are safe to delete"},
      {"IO001", Severity::kError, "input file could not be read or parsed",
       "check the path and the file format"},
  };
  return catalog;
}

const RuleInfo* find_rule_info(std::string_view id) {
  for (const RuleInfo& info : rule_catalog()) {
    if (id == info.id) return &info;
  }
  return nullptr;
}

Severity worst_severity(const std::vector<Diagnostic>& diagnostics) {
  Severity worst = Severity::kInfo;
  for (const auto& d : diagnostics) {
    if (d.severity > worst) worst = d.severity;
  }
  return worst;
}

std::size_t count(const std::vector<Diagnostic>& diagnostics, Severity severity) {
  std::size_t n = 0;
  for (const auto& d : diagnostics) {
    if (d.severity == severity) ++n;
  }
  return n;
}

std::string format_report(const std::vector<Diagnostic>& diagnostics) {
  std::string out;
  for (const auto& d : diagnostics) {
    out += d.format();
    out += '\n';
  }
  return out;
}

namespace {

using util::append_json_string;

void append_field(std::string& out, const char* key, const std::string& value, bool last = false) {
  append_json_string(out, key);
  out += ':';
  append_json_string(out, value);
  if (!last) out += ',';
}

}  // namespace

std::string to_json(const std::vector<Diagnostic>& diagnostics) {
  std::string out = "{\"diagnostics\":[";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const auto& d = diagnostics[i];
    if (i != 0) out += ',';
    out += '{';
    append_field(out, "rule", d.rule_id);
    append_field(out, "severity", to_string(d.severity));
    append_field(out, "location", d.location);
    append_field(out, "message", d.message);
    append_field(out, "fix_hint", d.fix_hint, /*last=*/true);
    out += '}';
  }
  out += "],\"counts\":{\"error\":" + std::to_string(count(diagnostics, Severity::kError)) +
         ",\"warning\":" + std::to_string(count(diagnostics, Severity::kWarning)) +
         ",\"info\":" + std::to_string(count(diagnostics, Severity::kInfo)) + "},\"worst\":";
  append_json_string(out, to_string(worst_severity(diagnostics)));
  out += '}';
  return out;
}

}  // namespace rw::lint
