#include "flow/guardband_flow.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

#include "flow/artifact.hpp"
#include "flow/preamble.hpp"
#include "lint/linter.hpp"
#include "logicsim/activity.hpp"
#include "netlist/annotate.hpp"
#include "util/thread_pool.hpp"

namespace rw::flow {

namespace {

/// Merged "complete" library, characterized lazily: only the (cell, corner)
/// pairs the annotated netlist actually instantiates, which is what keeps
/// the 121-corner complete library tractable. Shared by the dynamic and
/// bounded-static flows.
liberty::Library build_used_corner_library(const netlist::Module& original,
                                           const netlist::Module& annotated,
                                           const std::vector<netlist::InstanceDuty>& duties,
                                           double years, charlib::LibraryFactory& factory,
                                           const std::string& name) {
  std::set<std::pair<std::string, std::string>> needed;  // (indexed name, base)
  std::map<std::string, aging::AgingScenario> corner_of;
  for (std::size_t i = 0; i < original.instances().size(); ++i) {
    const std::string& base = original.instances()[i].cell;
    const std::string& indexed = annotated.instances()[i].cell;
    needed.emplace(indexed, base);
    const double lp = aging::quantize_lambda(duties[i].lambda_p);
    const double ln = aging::quantize_lambda(duties[i].lambda_n);
    corner_of.emplace(indexed, aging::AgingScenario{lp, ln, years, true});
  }
  liberty::Library merged(name);
  for (const auto& [indexed, base] : needed) {
    liberty::Cell cell = factory.cell(base, corner_of.at(indexed));
    cell.name = indexed;
    merged.add_cell(std::move(cell));
  }
  return merged;
}

/// Scalar "slowness" of a characterized corner: the sum of every NLDM delay
/// entry across all arcs. Monotone in aging degradation, so the argmax over
/// a λ range is the corner STA should fear most; a deterministic scalar also
/// gives a stable tie-break (lower λn wins on equality).
double corner_slowness(const liberty::Cell& cell) {
  double sum = 0.0;
  for (const liberty::TimingArc& arc : cell.arcs) {
    for (double v : arc.rise.delay_ps.values()) sum += v;
    for (double v : arc.fall.delay_ps.values()) sum += v;
  }
  return sum;
}

}  // namespace

sta::GuardbandReport static_guardband(const netlist::Module& module,
                                      charlib::LibraryFactory& factory,
                                      const aging::AgingScenario& scenario,
                                      const sta::StaOptions& options,
                                      const OrchestratorOptions* orch) {
  FlowOrchestrator run("static_guardband", resolve_options(orch));
  const std::size_t quarantined_before = factory.quarantined().size();

  const liberty::Library fresh = fresh_library_stage(run, factory);
  preflight_netlist(module, fresh);

  const liberty::Library aged =
      run.stage("aged_library", [&] { return factory.library(scenario); },
                artifact::encode_library, artifact::decode_library);
  preflight_library(aged, &fresh);

  const sta::GuardbandReport report = guardband_stage(run, module, fresh, module, aged, options);

  run.report().fallbacks += count_fallback_points(fresh) + count_fallback_points(aged);
  run.report().quarantined += static_cast<int>(factory.quarantined().size() - quarantined_before);
  run.finish();
  return report;
}

DynamicAgingResult dynamic_workload_guardband(const netlist::Module& module,
                                              charlib::LibraryFactory& factory,
                                              const Stimulus& stimulus, int cycles, double years,
                                              const sta::StaOptions& options,
                                              const OrchestratorOptions* orch) {
  FlowOrchestrator run("dynamic_workload_guardband", resolve_options(orch));
  const std::size_t quarantined_before = factory.quarantined().size();

  const liberty::Library fresh = fresh_library_stage(run, factory);
  lint::SubjectAnalysis preflight;
  preflight_netlist(module, fresh, nullptr, &preflight);

  // 1+2. Gate-level simulation of the workload (Modelsim's role) and
  // duty-cycle extraction, plus post-warm-up per-net toggle rates for the
  // AC001 oracle below. One stage: the activity counters are meaningless
  // without the extraction that interprets them. The toggle window skips the
  // start-up transient (X-free here, but the settled window is what the
  // stationary bounds speak about); nets with no post-warm-up data carry the
  // -1 sentinel and are skipped by the oracle.
  struct SimulateOut {
    std::vector<netlist::InstanceDuty> duties;
    std::vector<double> toggles;  // per net, toggles/cycle; -1 = no data
  };
  const SimulateOut sim_out = run.stage(
      "simulate",
      [&] {
        logicsim::CycleSimulator sim(module, fresh);
        logicsim::ActivityCollector activity(module.net_count());
        logicsim::ActivityCollector settled(module.net_count());
        const int warmup = std::min(64, cycles / 4);
        for (int k = 0; k < cycles; ++k) {
          throw_if_cancelled();
          stimulus(sim, k);
          sim.evaluate();
          activity.observe(sim);
          if (k >= warmup) settled.observe(sim);
          sim.clock_edge();
        }
        SimulateOut out;
        out.duties = logicsim::extract_duty_cycles(module, fresh, activity);
        out.toggles.resize(static_cast<std::size_t>(module.net_count()), -1.0);
        for (std::size_t n = 0; n < out.toggles.size(); ++n) {
          const auto rate = settled.toggle_rate(static_cast<netlist::NetId>(n));
          if (rate.has_value()) out.toggles[n] = *rate;
        }
        return out;
      },
      [](const SimulateOut& s) {
        std::vector<double> v;
        v.reserve(1 + 2 * s.duties.size() + s.toggles.size());
        v.push_back(static_cast<double>(s.duties.size()));
        for (const netlist::InstanceDuty& d : s.duties) {
          v.push_back(d.lambda_p);
          v.push_back(d.lambda_n);
        }
        for (double t : s.toggles) v.push_back(t);
        return artifact::encode_doubles(v);
      },
      [](const std::string& text) {
        const std::vector<double> v = artifact::decode_doubles(text);
        if (v.empty()) throw std::runtime_error("simulate artifact: empty");
        const auto n = static_cast<std::size_t>(v[0]);
        if (v.size() < 1 + 2 * n) throw std::runtime_error("simulate artifact: bad length");
        SimulateOut s;
        for (std::size_t i = 0; i < n; ++i) {
          s.duties.push_back(netlist::InstanceDuty{v[1 + 2 * i], v[2 + 2 * i]});
        }
        s.toggles.assign(v.begin() + static_cast<std::ptrdiff_t>(1 + 2 * n), v.end());
        return s;
      });
  const std::vector<netlist::InstanceDuty>& duties = sim_out.duties;

  // Annotation is pure arithmetic over the duty cycles — recomputed inline
  // on every run (including resumed ones) rather than checkpointed.
  DynamicAgingResult result{netlist::Module(module), {}, {}};
  result.corners = netlist::annotate_with_duty_cycles(result.annotated, duties);

  // 3. Merged complete library for exactly the corners in use.
  const liberty::Library merged = run.stage(
      "characterize",
      [&] {
        return build_used_corner_library(module, result.annotated, duties, years, factory,
                                         "reliaware_complete_used");
      },
      artifact::encode_library, artifact::decode_library);
  preflight_library(merged, &fresh);

  // Oracle cross-check: every simulated annotation must sit inside the
  // statically proven workload-independent λ bounds (SP001), and every
  // post-warm-up measured toggle rate inside the proven activity bounds
  // (AC001). A finding here is a bug in the simulate/extract/annotate
  // pipeline, not in the design — fail loudly rather than time against
  // corrupt corners. The tiny slack absorbs float accumulation over the
  // measurement window, nothing more. Annotation only renamed cells to
  // their λ corners, so the bounds are the pre-flight's; the NL and AN
  // rules still check the annotated copy itself.
  {
    lint::ActivityMeasurement measured;
    measured.slack = 1e-9;
    for (std::size_t n = 0; n < sim_out.toggles.size(); ++n) {
      if (sim_out.toggles[n] < 0.0) continue;
      measured.toggle_rates.emplace_back(module.net_name(static_cast<netlist::NetId>(n)),
                                         sim_out.toggles[n]);
    }
    lint::SubjectAnalysis oracle;
    oracle.adopt_bounds(preflight);
    lint::LintSubject subject;
    subject.module = &result.annotated;
    subject.library = &merged;
    subject.measured_activity = &measured;
    subject.analysis = &oracle;
    lint::report_diagnostics(lint::lint_or_throw(lint::Linter::netlist_linter(), subject));
  }

  // 4. Timing against the merged library vs the fresh library.
  result.report = guardband_stage(run, module, fresh, result.annotated, merged, options);

  run.report().fallbacks += count_fallback_points(merged);
  run.report().quarantined += static_cast<int>(factory.quarantined().size() - quarantined_before);
  run.finish();
  return result;
}

BoundedStaticResult bounded_static_guardband(const netlist::Module& module,
                                             charlib::LibraryFactory& factory, double years,
                                             const stress::AnalyzeOptions& stress_options,
                                             const sta::StaOptions& options,
                                             const OrchestratorOptions* orch) {
  FlowOrchestrator run("bounded_static_guardband", resolve_options(orch));
  const std::size_t quarantined_before = factory.quarantined().size();

  const liberty::Library fresh = fresh_library_stage(run, factory);
  lint::SubjectAnalysis preflight;
  const lint::LintSubject linted = preflight_netlist(module, fresh, &stress_options, &preflight);

  // 1. Prove per-instance λ bounds — no simulation, no workload. The
  // pre-flight's SP rule proved them already (inline, so also on resumed
  // runs).
  BoundedStaticResult result{netlist::Module(module), {}, {}, {}, 0};
  result.stress = preflight.stress_report(linted);

  constexpr double kStep = 0.1;  // the annotate/merge λ grid
  const auto grid_range = [&](const stress::Interval& bound) {
    const int lo = static_cast<int>(std::round(aging::quantize_lambda(bound.lo, kStep) / kStep));
    const int hi = static_cast<int>(std::round(aging::quantize_lambda(bound.hi, kStep) / kStep));
    return std::pair<int, int>{lo, hi};
  };

  // 2–4. Candidate corners inside every proven bound, characterized in
  // parallel and ranked by table slowness; per instance the worst (slowest)
  // in-bounds corner wins, lower λn on ties. One stage: the slowness ranking
  // only matters through the duty assignment it produces.
  using Selection = std::pair<std::size_t, std::vector<netlist::InstanceDuty>>;
  const Selection selection = run.stage(
      "select_corners",
      [&] {
        std::set<std::pair<std::string, int>> distinct;  // (base cell, λn grid index)
        for (std::size_t i = 0; i < module.instances().size(); ++i) {
          const auto [lo, hi] = grid_range(result.stress.instances[i].lambda_n);
          for (int k = lo; k <= hi; ++k) distinct.emplace(module.instances()[i].cell, k);
        }
        const std::vector<std::pair<std::string, int>> candidates(distinct.begin(),
                                                                  distinct.end());
        std::vector<double> slowness(candidates.size(), 0.0);
        util::ThreadPool::shared().parallel_for(candidates.size(), [&](std::size_t c) {
          const double ln = static_cast<double>(candidates[c].second) * kStep;
          const aging::AgingScenario corner{1.0 - ln, ln, years, true};
          slowness[c] = corner_slowness(factory.cell(candidates[c].first, corner));
        });
        std::map<std::pair<std::string, int>, double> slowness_of;
        for (std::size_t c = 0; c < candidates.size(); ++c) {
          slowness_of[candidates[c]] = slowness[c];
        }
        std::vector<netlist::InstanceDuty> duties(module.instances().size());
        for (std::size_t i = 0; i < module.instances().size(); ++i) {
          const auto [lo, hi] = grid_range(result.stress.instances[i].lambda_n);
          int best = lo;
          double best_slowness = slowness_of.at({module.instances()[i].cell, lo});
          for (int k = lo + 1; k <= hi; ++k) {
            const double s = slowness_of.at({module.instances()[i].cell, k});
            if (s > best_slowness) {
              best = k;
              best_slowness = s;
            }
          }
          const double ln = static_cast<double>(best) * kStep;
          duties[i] = netlist::InstanceDuty{1.0 - ln, ln};
        }
        return Selection{distinct.size(), std::move(duties)};
      },
      [](const Selection& s) {
        std::vector<double> v;
        v.reserve(1 + 2 * s.second.size());
        v.push_back(static_cast<double>(s.first));
        for (const netlist::InstanceDuty& d : s.second) {
          v.push_back(d.lambda_p);
          v.push_back(d.lambda_n);
        }
        return artifact::encode_doubles(v);
      },
      [](const std::string& text) {
        const std::vector<double> v = artifact::decode_doubles(text);
        if (v.size() % 2 == 0) {
          throw std::runtime_error("select_corners artifact: bad length");
        }
        Selection s;
        s.first = static_cast<std::size_t>(v[0]);
        for (std::size_t i = 1; i + 1 < v.size(); i += 2) {
          s.second.push_back(netlist::InstanceDuty{v[i], v[i + 1]});
        }
        return s;
      });
  result.candidate_corners = selection.first;
  const std::vector<netlist::InstanceDuty>& duties = selection.second;

  // 5. Annotate, build the used-corner merged library, and time it.
  result.corners = netlist::annotate_with_duty_cycles(result.annotated, duties, kStep);
  const liberty::Library merged = run.stage(
      "characterize",
      [&] {
        return build_used_corner_library(module, result.annotated, duties, years, factory,
                                         "reliaware_bounded_static");
      },
      artifact::encode_library, artifact::decode_library);
  preflight_library(merged, &fresh);

  result.report = guardband_stage(run, module, fresh, result.annotated, merged, options);

  run.report().fallbacks += count_fallback_points(merged);
  run.report().quarantined += static_cast<int>(factory.quarantined().size() - quarantined_before);
  run.finish();
  return result;
}

}  // namespace rw::flow
