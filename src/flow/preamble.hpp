#pragma once

/// \file preamble.hpp
/// What the guardband, proven and containment flows share: orchestrator
/// options, the fresh-library stage with its netlist pre-flight, the library
/// pre-flight, the LB006 fallback count and the fresh-vs-aged "sta" stage.
/// Internal to src/flow.

#include "charlib/factory.hpp"
#include "flow/orchestrator.hpp"
#include "lint/linter.hpp"
#include "netlist/netlist.hpp"
#include "sta/guardband.hpp"
#include "stress/analyzer.hpp"

namespace rw::flow {

/// `*orch`, or RW_FLOW_DIR / RW_FLOW_RESUME when `orch` is null.
OrchestratorOptions resolve_options(const OrchestratorOptions* orch);

/// The "fresh_library" stage.
liberty::Library fresh_library_stage(FlowOrchestrator& run, charlib::LibraryFactory& factory);

/// The netlist pre-flight against the fresh library: a structurally broken
/// netlist (combinational cycles, multi-driven nets, bogus λ annotations,
/// ...) is refused with the full diagnostic list instead of failing deep
/// inside STA or characterization. The library is factory-generated, so
/// only the netlist, annotation, stress and activity rules run. When
/// `analysis` is given, the caller owns the run's shared analysis and reuses
/// the bounds it proved: `analysis->stress_report(subject)` on the returned
/// subject, and the dynamic flow's oracle.
lint::LintSubject preflight_netlist(const netlist::Module& module, const liberty::Library& fresh,
                                    const stress::AnalyzeOptions* stress_options = nullptr,
                                    lint::SubjectAnalysis* analysis = nullptr);

/// Library pre-flight, against `fresh` when given: broken tables abort, and
/// warnings (notably LB006 fallback points from cells whose OPC grid did not
/// fully converge) are reported, so timing that rests on second-class data
/// is visible (RW_LINT_MIN_SEVERITY can silence them).
void preflight_library(const liberty::Library& library,
                       const liberty::Library* fresh = nullptr);

/// LB006 fallback points of a library: the RunReport's `fallbacks` counter.
int count_fallback_points(const liberty::Library& library);

/// The "sta" stage: the critical path of `module` against `fresh` and of
/// `aged_module` against `aged`, checkpointed as two hexfloat doubles.
sta::GuardbandReport guardband_stage(FlowOrchestrator& run, const netlist::Module& module,
                                     const liberty::Library& fresh,
                                     const netlist::Module& aged_module,
                                     const liberty::Library& aged,
                                     const sta::StaOptions& options);

}  // namespace rw::flow
