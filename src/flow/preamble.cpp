#include "flow/preamble.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "flow/artifact.hpp"
#include "lint/linter.hpp"
#include "sta/analysis.hpp"

namespace rw::flow {

OrchestratorOptions resolve_options(const OrchestratorOptions* orch) {
  return orch != nullptr ? *orch : OrchestratorOptions::from_env();
}

liberty::Library fresh_library_stage(FlowOrchestrator& run, charlib::LibraryFactory& factory) {
  return run.stage(
      "fresh_library", [&] { return factory.library(aging::AgingScenario::fresh()); },
      artifact::encode_library, artifact::decode_library);
}

lint::LintSubject preflight_netlist(const netlist::Module& module, const liberty::Library& fresh,
                                    const stress::AnalyzeOptions* stress_options,
                                    lint::SubjectAnalysis* analysis) {
  lint::LintSubject subject;
  subject.module = &module;
  subject.library = &fresh;
  subject.stress = stress_options;
  subject.analysis = analysis;
  lint::report_diagnostics(lint::lint_or_throw(lint::Linter::netlist_linter(), subject));
  return subject;
}

void preflight_library(const liberty::Library& library, const liberty::Library* fresh) {
  lint::LintSubject subject;
  subject.library = &library;
  subject.fresh = fresh;
  lint::report_diagnostics(lint::lint_or_throw(lint::Linter::library_linter(), subject));
}

int count_fallback_points(const liberty::Library& library) {
  int n = 0;
  for (const liberty::Cell& cell : library.cells()) n += static_cast<int>(cell.fallbacks.size());
  return n;
}

sta::GuardbandReport guardband_stage(FlowOrchestrator& run, const netlist::Module& module,
                                     const liberty::Library& fresh,
                                     const netlist::Module& aged_module,
                                     const liberty::Library& aged,
                                     const sta::StaOptions& options) {
  return run.stage(
      "sta",
      [&] {
        sta::GuardbandReport report;
        report.fresh_cp_ps = sta::Sta(module, fresh, options).critical_delay_ps();
        report.aged_cp_ps = sta::Sta(aged_module, aged, options).critical_delay_ps();
        return report;
      },
      [](const sta::GuardbandReport& report) {
        return artifact::encode_doubles({report.fresh_cp_ps, report.aged_cp_ps});
      },
      [](const std::string& text) {
        const std::vector<double> v = artifact::decode_doubles(text);
        if (v.size() != 2) throw std::runtime_error("guardband artifact: expected 2 values");
        sta::GuardbandReport report;
        report.fresh_cp_ps = v[0];
        report.aged_cp_ps = v[1];
        return report;
      });
}

}  // namespace rw::flow
