#include "flow/prove_flow.hpp"

#include <set>
#include <utility>

#include "charlib/interval_query.hpp"
#include "flow/artifact.hpp"
#include "flow/preamble.hpp"
#include "lint/linter.hpp"
#include "sta/analysis.hpp"
#include "util/thread_pool.hpp"

namespace rw::flow {

namespace {

/// The merged bracket library: every distinct (base cell, bracket corner)
/// pair some instance's proven bound needs, characterized in parallel and
/// stored under the λ-indexed name. Quarantined pairs are skipped — they
/// surface as `missing` corners (and PV003 vacuity) downstream.
liberty::Library build_bracket_library(
    charlib::LibraryFactory& factory,
    const std::set<std::pair<std::string, aging::AgingScenario>>& distinct) {
  const std::vector<std::pair<std::string, aging::AgingScenario>> pairs(distinct.begin(),
                                                                        distinct.end());
  std::vector<liberty::Cell> cells(pairs.size());
  std::vector<char> ok(pairs.size(), 0);
  util::ThreadPool::shared().parallel_for(pairs.size(), [&](std::size_t c) {
    try {
      cells[c] = factory.cell(pairs[c].first, pairs[c].second);
      cells[c].name = charlib::bracket_cell_name(pairs[c].first, pairs[c].second);
      ok[c] = 1;
    } catch (const std::exception&) {
      ok[c] = 0;
    }
  });
  liberty::Library merged("reliaware_prove_brackets");
  for (std::size_t c = 0; c < pairs.size(); ++c) {
    if (ok[c] != 0) merged.add_cell(std::move(cells[c]));
  }
  return merged;
}

}  // namespace

ProvenGuardbandResult proven_guardband(const netlist::Module& module,
                                       charlib::LibraryFactory& factory, double years,
                                       double guardband_ps,
                                       const stress::AnalyzeOptions& stress_options,
                                       const sta::StaOptions& sta_options,
                                       double width_budget_ps, const OrchestratorOptions* orch) {
  FlowOrchestrator run("proven_guardband", resolve_options(orch));
  const std::size_t quarantined_before = factory.quarantined().size();

  const liberty::Library fresh = fresh_library_stage(run, factory);
  lint::SubjectAnalysis preflight;
  const lint::LintSubject linted = preflight_netlist(module, fresh, &stress_options, &preflight);

  // 1. Prove per-instance λ bounds — pure interval arithmetic, which the
  // pre-flight's SP rule did already (inline, so also on resumed runs).
  ProvenGuardbandResult result;
  result.stress = preflight.stress_report(linted);

  // 2. Bracket every proven bound with its extreme λ-lattice corners and
  // characterize them once, checkpointed as one merged library.
  std::set<std::pair<std::string, aging::AgingScenario>> distinct;
  for (std::size_t i = 0; i < module.instances().size(); ++i) {
    for (const auto& corner :
         charlib::bracket_scenarios(result.stress.instances[i], years)) {
      distinct.emplace(module.instances()[i].cell, corner);
    }
  }
  result.candidate_corners = distinct.size();
  const liberty::Library merged = run.stage(
      "prove_corners",
      [&] { return build_bracket_library(factory, distinct); },
      artifact::encode_library, artifact::decode_library);
  preflight_library(merged, &fresh);

  // 3. Interval STA over the bracket corners; the scalar fresh STA anchors
  // the guardband. Serial + deterministic, recomputed inline.
  const std::vector<charlib::InstanceCorners> corners =
      charlib::corners_from_library(module, result.stress, merged, fresh);
  const sta::IntervalSta ista(module, fresh, corners, sta_options);
  const double fresh_cp = sta::Sta(module, fresh, sta_options).critical_delay_ps();
  result.summary = ista.summarize(fresh_cp);
  result.summary.guardband_ps = guardband_ps;
  result.summary.width_budget_ps = width_budget_ps;

  // 4. Verdict: the PV rules certify or refute the proof.
  lint::Linter prove_linter;
  prove_linter.add_rules(lint::prove_rules());
  lint::LintSubject subject;
  subject.module = &module;
  subject.prove = &result.summary;
  result.findings = prove_linter.run(subject);
  lint::report_diagnostics(result.findings);
  result.certified = lint::worst_severity(result.findings) < lint::Severity::kError;

  run.report().fallbacks += count_fallback_points(merged);
  run.report().quarantined += static_cast<int>(factory.quarantined().size() - quarantined_before);
  run.finish();
  return result;
}

}  // namespace rw::flow
