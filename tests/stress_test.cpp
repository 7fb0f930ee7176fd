#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cells/catalog.hpp"
#include "charlib/factory.hpp"
#include "circuits/arith.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/guardband_flow.hpp"
#include "logicsim/activity.hpp"
#include "logicsim/simulator.hpp"
#include "netlist/builder.hpp"
#include "sta/analysis.hpp"
#include "stress/activity_bounds.hpp"
#include "stress/analyzer.hpp"
#include "stress/interval.hpp"
#include "stress/stacks.hpp"
#include "synth/synthesizer.hpp"
#include "util/rng.hpp"

namespace rw::stress {
namespace {

charlib::LibraryFactory& factory() {
  static charlib::LibraryFactory f = [] {
    charlib::LibraryFactory::Options o;
    o.characterize.grid = charlib::OpcGrid::coarse();
    o.cell_subset = {"INV_X1", "INV_X2", "NAND2_X1", "NAND2_X2", "NOR2_X1",
                     "AND2_X1", "XOR2_X1", "BUF_X2",  "DFF_X1"};
    return charlib::LibraryFactory(o);
  }();
  return f;
}

const liberty::Library& lib() { return factory().library(aging::AgingScenario::fresh()); }

// ---------------------------------------------------------------- interval --

TEST(Interval, BasicAlgebra) {
  const Interval v{0.2, 0.7};
  EXPECT_DOUBLE_EQ(v.complement().lo, 0.3);
  EXPECT_DOUBLE_EQ(v.complement().hi, 0.8);
  EXPECT_TRUE(v.contains(0.2));
  EXPECT_TRUE(v.contains(0.7));
  EXPECT_FALSE(v.contains(0.71));
  EXPECT_TRUE(Interval::full().contains(v));
  EXPECT_FALSE(v.is_constant());
  EXPECT_TRUE(Interval::point(1.0).is_constant());
  const Interval h = Interval{0.0, 0.3}.hull(Interval{0.5, 0.6});
  EXPECT_DOUBLE_EQ(h.lo, 0.0);
  EXPECT_DOUBLE_EQ(h.hi, 0.6);
  const Interval avg = average(2, [](std::size_t i) {
    return i == 0 ? Interval{0.0, 0.5} : Interval{1.0, 1.0};
  });
  EXPECT_DOUBLE_EQ(avg.lo, 0.5);
  EXPECT_DOUBLE_EQ(avg.hi, 0.75);
  EXPECT_EQ(v.str(), "[0.2000, 0.7000]");
}

// ---------------------------------------------------------------- transfer --

constexpr std::uint64_t kAnd2Truth = 0b1000;  // bit p set iff both inputs 1

TEST(Transfer, IndependentIsExactForAnd) {
  const Interval in[2] = {Interval{0.2, 0.4}, Interval{0.5, 0.5}};
  const Interval out = transfer_independent(kAnd2Truth, 2, in);
  EXPECT_DOUBLE_EQ(out.lo, 0.1);
  EXPECT_DOUBLE_EQ(out.hi, 0.2);
}

TEST(Transfer, CorrelatedAdmitsComplementPair) {
  // AND(a, b) where b could be ¬a: the true probability is 0, which the
  // independence product (0.25) would wrongly exclude.
  const Interval in[2] = {Interval{0.5, 0.5}, Interval{0.5, 0.5}};
  const Interval out = transfer_correlated(kAnd2Truth, 2, in);
  EXPECT_DOUBLE_EQ(out.lo, 0.0);
  EXPECT_DOUBLE_EQ(out.hi, 0.5);  // Fréchet upper: min of the marginals
}

TEST(Transfer, CorrelatedIsExactWithConstantInput) {
  const Interval in[2] = {Interval{1.0, 1.0}, Interval{0.3, 0.6}};
  const Interval out = transfer_correlated(kAnd2Truth, 2, in);
  EXPECT_DOUBLE_EQ(out.lo, 0.3);
  EXPECT_DOUBLE_EQ(out.hi, 0.6);
}

TEST(Transfer, ConstantFunctionsCollapse) {
  const Interval in[2] = {Interval::full(), Interval::full()};
  EXPECT_TRUE(transfer_correlated(0b0000, 2, in).is_constant());
  EXPECT_TRUE(transfer_correlated(0b1111, 2, in).is_constant());
  EXPECT_TRUE(transfer_independent(0b1111, 2, in).is_constant());
}

// ---------------------------------------------------------------- analyzer --

/// y = AND(a, INV(a)) — identically 0, invisible to independence reasoning.
TEST(Analyzer, ReconvergenceWidensSoundly) {
  netlist::Module m("reconv");
  const auto a = m.add_net("a");
  m.mark_input(a);
  netlist::NetlistBuilder b(m, lib());
  const auto n1 = b.gate("INV_X1", {a});
  const auto y = b.gate("AND2_X1", {a, n1});
  m.mark_output(y);

  AnalyzeOptions options;
  options.input_intervals["a"] = Interval::point(0.5);
  const StressReport r = analyze(m, lib(), options);
  EXPECT_TRUE(r.converged);
  // Sound: the true value 0 is inside the bound; precise-ish: ≤ 0.5.
  EXPECT_TRUE(r.net[static_cast<std::size_t>(y)].contains(0.0));
  EXPECT_LE(r.net[static_cast<std::size_t>(y)].hi, 0.5);
  EXPECT_NE(r.net_widened[static_cast<std::size_t>(y)], 0);
  EXPECT_TRUE(r.instances[1].widened);
  EXPECT_EQ(r.widened_net_count(), 1u);
}

TEST(Analyzer, ANetOnTwoPinsOfOneGateIsNotACycle) {
  // Levelization once counted in-degree per fanin pin but released a sink
  // once per instance, so NAND2(b, b) never became ready and both analyses
  // reported a combinational cycle that STA does not see.
  netlist::Module m("dup_pins");
  const auto a = m.add_net("a");
  m.mark_input(a);
  netlist::NetlistBuilder b(m, lib());
  const auto n1 = b.gate("INV_X1", {a});
  const auto y = b.gate("NAND2_X1", {n1, n1});
  m.mark_output(y);
  EXPECT_GT(sta::Sta(m, lib()).critical_delay_ps(), 0.0);

  AnalyzeOptions options;
  options.input_intervals["a"] = Interval::point(0.25);
  const StressReport r = analyze(m, lib(), options);
  EXPECT_TRUE(r.converged);
  // y = NAND(¬a, ¬a) = a, so P(y) = 0.25 must lie inside the bound.
  EXPECT_TRUE(r.net[static_cast<std::size_t>(y)].contains(0.25))
      << r.net[static_cast<std::size_t>(y)].str();

  ActivityOptions activity;
  activity.probability = options;
  activity.input_densities["a"] = Interval::point(0.2);
  const ActivityReport ar = analyze_activity(m, lib(), activity);
  EXPECT_TRUE(ar.density[static_cast<std::size_t>(y)].contains(0.2))
      << ar.density[static_cast<std::size_t>(y)].str();
}

TEST(Analyzer, SequentialConstantReachesFixpoint) {
  netlist::Module m("pipe");
  const auto a = m.add_net("a");
  m.mark_input(a);
  m.set_clock(m.add_net("clk"));
  netlist::NetlistBuilder b(m, lib());
  const auto q1 = b.flop("DFF_X1", a);
  const auto q2 = b.flop("DFF_X1", q1);
  m.mark_output(q2);

  AnalyzeOptions options;
  options.input_intervals["a"] = Interval::point(1.0);
  const StressReport r = analyze(m, lib(), options);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(r.iterations, 2);
  EXPECT_TRUE(r.net[static_cast<std::size_t>(q1)].is_constant());
  EXPECT_TRUE(r.net[static_cast<std::size_t>(q2)].is_constant());
  EXPECT_DOUBLE_EQ(r.net[static_cast<std::size_t>(q2)].lo, 1.0);
}

TEST(Analyzer, FlopFeedbackStaysTopAndConverges) {
  // Toggle flop: Q -> INV -> D. The concrete duty is 0.5, the abstract
  // fixed point is ⊤ — sound, and the iteration must still terminate.
  netlist::Module m("toggle");
  m.set_clock(m.add_net("clk"));
  const auto q = m.add_net("q");
  netlist::NetlistBuilder b(m, lib());
  const auto d = b.gate("INV_X1", {q});
  m.add_instance("r0", "DFF_X1", {d, m.clock()}, q);
  m.mark_output(q);

  const StressReport r = analyze(m, lib(), {});
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.net[static_cast<std::size_t>(q)], Interval::full());
}

TEST(Analyzer, FlopLambdaMatchesSimulatorClockConvention) {
  // With unconstrained inputs a flop still gets λn ∈ [0.25, 0.75]: the mean
  // of D ∈ [0,1] and the CK pin pinned at 0.5 (extract_duty_cycles parity).
  netlist::Module m("ff");
  const auto a = m.add_net("a");
  m.mark_input(a);
  m.set_clock(m.add_net("clk"));
  netlist::NetlistBuilder b(m, lib());
  const auto q = b.flop("DFF_X1", a);
  m.mark_output(q);

  const StressReport r = analyze(m, lib(), {});
  EXPECT_DOUBLE_EQ(r.instances[0].lambda_n.lo, 0.25);
  EXPECT_DOUBLE_EQ(r.instances[0].lambda_n.hi, 0.75);
  EXPECT_DOUBLE_EQ(r.instances[0].lambda_p.lo, 0.25);
  EXPECT_DOUBLE_EQ(r.instances[0].lambda_p.hi, 0.75);
}

// ------------------------------------------------------------- determinism --

synth::Ir small_datapath() {
  synth::Ir ir;
  const auto a = circuits::input_word(ir, "a", 6);
  const auto b = circuits::input_word(ir, "b", 6);
  const auto ra = circuits::register_word(ir, a);
  const auto rb = circuits::register_word(ir, b);
  const auto sum = circuits::add(ir, ra, rb);
  circuits::output_word(ir, "s", circuits::register_word(ir, sum));
  return ir;
}

netlist::Module mapped_design() {
  synth::SynthesisOptions opt;
  opt.multi_start = false;
  return synth::synthesize(small_datapath(), lib(), "dp", opt).module;
}

// -------------------------------------------------------------- soundness --

/// The acceptance property: on every paper benchmark circuit, for several
/// RNG workloads, the simulated per-instance (λp, λn) lies inside the
/// statically proven interval.
TEST(Soundness, SimulatedLambdaInsideProvenBoundsOnEveryBenchmark) {
  constexpr int kWarmup = 64;    // flop reset transient is outside the
  constexpr int kMeasure = 512;  // steady-state semantics of the bounds
  synth::SynthesisOptions opt;
  opt.multi_start = false;
  for (const auto& bc : circuits::benchmark_suite()) {
    const netlist::Module m = synth::synthesize(bc.build(), lib(), bc.name, opt).module;

    // Workload-independent run: default [0,1] inputs, exact containment.
    const StressReport bounds = analyze(m, lib(), {});
    EXPECT_TRUE(bounds.converged) << bc.name;

    // Narrowed run: per-input Bernoulli rates declared with a slack that
    // covers the finite-sample noise of the simulated frequencies.
    AnalyzeOptions narrowed;
    std::vector<double> rate;
    {
      int k = 0;
      for (netlist::NetId pi : m.inputs()) {
        if (pi == m.clock()) continue;
        const double p = 0.15 + 0.7 * ((k * 37) % 100) / 100.0;
        rate.push_back(p);
        narrowed.input_intervals[m.net_name(pi)] =
            Interval{p - 0.06, p + 0.06}.clamped();
        ++k;
      }
    }
    const StressReport narrow_bounds = analyze(m, lib(), narrowed);

    for (unsigned seed = 1; seed <= 3; ++seed) {
      util::Rng rng(seed);
      logicsim::CycleSimulator sim(m, lib());
      logicsim::ActivityCollector activity(m.net_count());
      for (int cycle = 0; cycle < kWarmup + kMeasure; ++cycle) {
        int k = 0;
        for (netlist::NetId pi : m.inputs()) {
          if (pi == m.clock()) continue;
          sim.set_input(pi, rng.chance(rate[static_cast<std::size_t>(k)]));
          ++k;
        }
        sim.evaluate();
        if (cycle >= kWarmup) activity.observe(sim);
        sim.clock_edge();
      }
      const auto duties = logicsim::extract_duty_cycles(m, lib(), activity);
      ASSERT_EQ(duties.size(), m.instances().size());
      for (std::size_t i = 0; i < duties.size(); ++i) {
        const auto& inst = m.instances()[i];
        // Exact containment against the workload-independent bounds.
        EXPECT_TRUE(bounds.instances[i].lambda_n.contains(duties[i].lambda_n))
            << bc.name << " seed " << seed << " inst " << inst.name << " λn "
            << duties[i].lambda_n << " ∉ " << bounds.instances[i].lambda_n.str();
        EXPECT_TRUE(bounds.instances[i].lambda_p.contains(duties[i].lambda_p))
            << bc.name << " seed " << seed << " inst " << inst.name << " λp "
            << duties[i].lambda_p << " ∉ " << bounds.instances[i].lambda_p.str();
        // Containment with sampling slack against the narrowed bounds
        // (independent Bernoulli inputs match the declared model).
        constexpr double kEps = 0.05;
        const Interval& nb = narrow_bounds.instances[i].lambda_n;
        EXPECT_GE(duties[i].lambda_n, nb.lo - kEps)
            << bc.name << " seed " << seed << " inst " << inst.name << " " << nb.str();
        EXPECT_LE(duties[i].lambda_n, nb.hi + kEps)
            << bc.name << " seed " << seed << " inst " << inst.name << " " << nb.str();
      }
    }
  }
}

// ------------------------------------------------------------ stack bounds --

TEST(Stacks, Nand2TransistorBounds) {
  const cells::CellSpec& spec = cells::find_cell("NAND2_X1");
  const std::vector<Interval> pins = {Interval::point(0.3), Interval::point(0.7)};
  const auto stresses = transistor_stress_bounds(spec, pins);
  ASSERT_EQ(stresses.size(), 4u);  // 2 nMOS series + 2 pMOS parallel
  for (const auto& t : stresses) {
    const double p_high = t.gate == "A" ? 0.3 : 0.7;
    if (t.type == device::MosType::kNmos) {
      EXPECT_DOUBLE_EQ(t.lambda.lo, p_high) << t.gate;
    } else {
      EXPECT_DOUBLE_EQ(t.lambda.lo, 1.0 - p_high) << t.gate;
    }
    EXPECT_TRUE(t.lambda.is_point());
  }
  const double spread =
      max_stack_spread(stresses, Interval::point(0.5), Interval::point(0.5));
  EXPECT_NEAR(spread, 0.2, 1e-12);  // per-device stress vs footnote-2 average
}

TEST(Stacks, MultiStageInternalNodesArePropagated) {
  // AND2 = NAND2 + INV: the inverter stage's transistors see the internal
  // node, whose interval must follow from the first stage.
  const cells::CellSpec& spec = cells::find_cell("AND2_X1");
  const std::vector<Interval> pins = {Interval::point(1.0), Interval::point(1.0)};
  const auto stresses = transistor_stress_bounds(spec, pins);
  ASSERT_GE(stresses.size(), 6u);
  for (const auto& t : stresses) {
    if (t.gate == "A" || t.gate == "B") continue;
    // Internal NAND output with both inputs at 1 is constant 0.
    const double p_high = 0.0;
    if (t.type == device::MosType::kNmos) {
      EXPECT_DOUBLE_EQ(t.lambda.hi, p_high) << t.gate;
    } else {
      EXPECT_DOUBLE_EQ(t.lambda.lo, 1.0 - p_high) << t.gate;
    }
  }
}

// ------------------------------------------------ compiled stage networks --

/// The string-keyed stage evaluation the compiled cells replace: every node
/// looked up by name in a map, every stage's truth table re-derived by
/// string compares. Kept here as the reference the compiled form must match
/// bit for bit.
struct RefNode {
  Interval prob = Interval::full();
  Interval dens = Interval::full();
  std::uint64_t pin_support = 0;
};

std::uint64_t ref_stage_truth(const cells::Stage& stage, const std::vector<std::string>& signals) {
  const int k = static_cast<int>(signals.size());
  std::uint64_t truth = 0;
  for (std::uint64_t pat = 0; pat < (std::uint64_t{1} << k); ++pat) {
    const bool on = stage.pulldown.conducts([&](const std::string& sig) {
      for (int i = 0; i < k; ++i) {
        if (signals[static_cast<std::size_t>(i)] == sig) return ((pat >> i) & 1u) != 0;
      }
      return false;
    });
    if (on) truth |= std::uint64_t{1} << pat;
  }
  return truth;
}

/// Node states of every pin and stage output by name, plus the state an
/// unknown name reads as. `toggles` empty: the probability half only.
std::pair<std::map<std::string, RefNode>, RefNode> ref_propagate(
    const cells::CellSpec& spec, const std::vector<Interval>& probs,
    const std::vector<Interval>& toggles) {
  const std::uint64_t all_pins = (std::uint64_t{1} << spec.inputs.size()) - 1;
  double top_hi = 1.0;
  for (const Interval& t : toggles) top_hi = std::max(top_hi, t.hi);
  const RefNode unknown{Interval::full(), Interval{0.0, top_hi}, all_pins};
  std::map<std::string, RefNode> node;
  for (std::size_t i = 0; i < spec.inputs.size(); ++i) {
    node[spec.inputs[i]] = RefNode{probs[i].clamped(),
                                   toggles.empty() ? Interval::full() : toggles[i],
                                   std::uint64_t{1} << i};
  }
  const auto state_of = [&](const std::string& name) {
    const auto it = node.find(name);
    return it != node.end() ? it->second : unknown;
  };
  for (const cells::Stage& stage : spec.stages) {
    const std::vector<std::string> signals = stage.pulldown.signals();
    const int k = static_cast<int>(signals.size());
    RefNode out;
    for (const std::string& sig : signals) out.pin_support |= state_of(sig).pin_support;
    Interval p[6];
    Interval d[6];
    bool correlated = false;
    std::uint64_t seen = 0;
    for (int i = 0; i < k; ++i) {
      const RefNode st = state_of(signals[static_cast<std::size_t>(i)]);
      p[i] = st.prob;
      d[i] = st.dens;
      if (!st.prob.is_constant()) {
        if ((seen & st.pin_support) != 0) correlated = true;
        seen |= st.pin_support;
      }
    }
    const std::uint64_t truth = ref_stage_truth(stage, signals);
    if (!toggles.empty()) {
      out.dens = correlated ? density_correlated(truth, k, p, d)
                            : density_independent(truth, k, p, d);
    }
    out.prob = (correlated ? transfer_correlated(truth, k, p) : transfer_independent(truth, k, p))
                   .complement();
    node[stage.out] = out;
  }
  return {std::move(node), unknown};
}

/// A seeded pin interval: constant pins, points, and wide boxes.
Interval seeded_probability(util::Rng& rng) {
  switch (rng.next_below(4)) {
    case 0:
      return Interval::point(rng.chance(0.5) ? 1.0 : 0.0);
    case 1:
      return Interval::point(rng.uniform(0.0, 1.0));
    default: {
      const double a = rng.uniform(0.0, 1.0);
      const double b = rng.uniform(0.0, 1.0);
      return Interval{std::min(a, b), std::max(a, b)};
    }
  }
}

/// A seeded toggle density, clock-fed (above 1) one time in five.
Interval seeded_density(util::Rng& rng) {
  if (rng.next_below(5) == 0) return Interval::point(2.0);
  const double a = rng.uniform(0.0, 1.0);
  const double b = rng.uniform(0.0, 1.0);
  return Interval{std::min(a, b), std::max(a, b)};
}

TEST(CompiledStages, EveryStagedCatalogCellMatchesTheStringKeyedReferenceBitwise) {
  util::Rng rng(0x57a9e5ULL);
  int cells_checked = 0;
  for (const cells::CellSpec& spec : cells::catalog()) {
    if (spec.is_flop || spec.stages.empty()) continue;
    ++cells_checked;
    const auto devices = cells::materialize(spec, device::ptm45());
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<Interval> probs;
      std::vector<Interval> toggles;
      for (std::size_t i = 0; i < spec.inputs.size(); ++i) {
        probs.push_back(seeded_probability(rng));
        toggles.push_back(seeded_density(rng));
      }
      const auto [prob_nodes, prob_unknown] = ref_propagate(spec, probs, {});
      const auto [dyn_nodes, dyn_unknown] = ref_propagate(spec, probs, toggles);
      const auto ref = [](const std::map<std::string, RefNode>& nodes, const RefNode& unknown,
                          const std::string& gate) {
        const auto it = nodes.find(gate);
        return it != nodes.end() ? it->second : unknown;
      };

      const auto stresses = transistor_stress_bounds(spec, probs);
      const auto activity = transistor_activity_bounds(spec, probs, toggles);
      ASSERT_EQ(stresses.size(), devices.size()) << spec.name;
      ASSERT_EQ(activity.size(), devices.size()) << spec.name;
      for (std::size_t t = 0; t < devices.size(); ++t) {
        SCOPED_TRACE(spec.name + " trial " + std::to_string(trial) + " device " +
                     std::to_string(t) + " gate " + devices[t].gate);
        const Interval high = ref(prob_nodes, prob_unknown, devices[t].gate).prob;
        const Interval lambda =
            devices[t].type == device::MosType::kNmos ? high : high.complement();
        EXPECT_EQ(stresses[t].gate, devices[t].gate);
        EXPECT_EQ(stresses[t].type, devices[t].type);
        EXPECT_EQ(stresses[t].width_um, devices[t].width_um);
        EXPECT_EQ(stresses[t].lambda.lo, lambda.lo);
        EXPECT_EQ(stresses[t].lambda.hi, lambda.hi);
        const Interval dens = ref(dyn_nodes, dyn_unknown, devices[t].gate).dens;
        EXPECT_EQ(activity[t].gate, devices[t].gate);
        EXPECT_EQ(activity[t].toggles.lo, dens.lo);
        EXPECT_EQ(activity[t].toggles.hi, dens.hi);
      }

      // The allocation-free HCI proxy of the activity summaries agrees too.
      const CompiledCell* compiled = compiled_catalog_cell(spec.name);
      ASSERT_NE(compiled, nullptr) << spec.name;
      const std::optional<RealInterval> worst =
          worst_transistor_toggles(*compiled, probs.data(), toggles.data());
      ASSERT_TRUE(worst.has_value()) << spec.name;
      RealInterval expected{0.0, 0.0};
      for (const TransistorActivity& t : activity) {
        expected.lo = std::max(expected.lo, t.toggles.lo);
        expected.hi = std::max(expected.hi, t.toggles.hi);
      }
      EXPECT_EQ(worst->lo, expected.lo) << spec.name;
      EXPECT_EQ(worst->hi, expected.hi) << spec.name;
    }
  }
  EXPECT_GT(cells_checked, 40);
}

TEST(CompiledStages, FlopsAndUnknownNamesHaveNoStageNetwork) {
  EXPECT_EQ(compiled_catalog_cell("DFF_X1"), nullptr);
  EXPECT_EQ(compiled_catalog_cell("NAND2_X1_0.30_0.70"), nullptr);
  EXPECT_EQ(compiled_catalog_cell("NO_SUCH_CELL"), nullptr);
  EXPECT_EQ(compiled_catalog_cell("NAND2_X1"), compiled_catalog_cell("NAND2_X1"));
}

// ------------------------------------------------------- bounded-static flow --

TEST(BoundedStatic, GuardbandAtMostOneCornerStatic) {
  const netlist::Module m = mapped_design();
  const auto bounded = flow::bounded_static_guardband(m, factory(), 10.0);
  const auto worst = flow::static_guardband(m, factory(), aging::AgingScenario::worst_case(10));
  EXPECT_GT(bounded.report.guardband_ps(), 0.0);
  EXPECT_LE(bounded.report.guardband_ps(), worst.guardband_ps() + 1e-6);
  EXPECT_FALSE(bounded.corners.empty());
  EXPECT_TRUE(bounded.stress.converged);
  EXPECT_GT(bounded.candidate_corners, 0u);
  // Every chosen corner is λ-indexed and couples λp = 1 − λn.
  for (const auto& [lp, ln] : bounded.corners) {
    EXPECT_NEAR(lp + ln, 1.0, 1e-9);
  }
}

/// Bitwise equality of two probability reports.
void expect_same_report(const StressReport& a, const StressReport& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.net, b.net);
  EXPECT_EQ(a.net_widened, b.net_widened);
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_EQ(a.instances[i].lambda_n, b.instances[i].lambda_n) << i;
    EXPECT_EQ(a.instances[i].lambda_p, b.instances[i].lambda_p) << i;
    EXPECT_EQ(a.instances[i].widened, b.instances[i].widened) << i;
  }
}

TEST(BoundedStatic, NarrowedInputsCannotWorsenTheGuardband) {
  const netlist::Module m = mapped_design();
  const auto wide = flow::bounded_static_guardband(m, factory(), 10.0);
  AnalyzeOptions narrowed;
  for (netlist::NetId pi : m.inputs()) {
    if (pi != m.clock()) narrowed.input_intervals[m.net_name(pi)] = Interval{0.45, 0.55};
  }
  const auto tight = flow::bounded_static_guardband(m, factory(), 10.0, narrowed);
  EXPECT_LE(tight.report.guardband_ps(), wide.report.guardband_ps() + 1e-6);
  EXPECT_LE(tight.candidate_corners, wide.candidate_corners);
  // The flow takes its bounds from the pre-flight's analysis; they are
  // exactly what a stand-alone analysis proves.
  expect_same_report(wide.stress, analyze(m, lib()));
  expect_same_report(tight.stress, analyze(m, lib(), narrowed));
}

// ------------------------------------------------------------------- CLI ----

/// Runs the CLI; stdout and stderr are merged unless `err` is given, which
/// then receives stderr alone.
std::string run_cli(const std::string& args, int& exit_code, std::string* err = nullptr) {
  // Per process: the `cli`-labelled ctest entry runs these tests alongside
  // the full binary.
  const std::string base = std::string(::testing::TempDir()) + "rwstress_out." +
                           std::to_string(static_cast<long>(::getpid()));
  const std::string out_path = base + ".txt";
  const std::string err_path = base + ".err";
  const std::string cmd = std::string(RWSTRESS_BIN) + " " + args + " > " + out_path +
                          (err != nullptr ? " 2> " + err_path : " 2>&1");
  const int status = std::system(cmd.c_str());
  exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());
    return ss.str();
  };
  if (err != nullptr) *err = slurp(err_path);
  return slurp(out_path);
}

TEST(RwstressCli, OutputIsThreadCountInvariant) {
  const std::string fixture =
      "--lib " RW_REPO_DIR "/examples/fixtures/mini.lib " RW_REPO_DIR
      "/examples/fixtures/clean.v";
  int code1 = -1;
  int codeN = -1;
  const std::string one = run_cli("--threads 1 " + fixture, code1);
  const std::string many = run_cli("--threads 8 " + fixture, codeN);
  EXPECT_EQ(code1, 0) << one;
  EXPECT_EQ(codeN, 0) << many;
  EXPECT_EQ(one, many);
  EXPECT_NE(one.find("lambda_n"), std::string::npos);
}

TEST(RwstressCli, DeclaredConstantsSurfaceAsSp002Warnings) {
  int code = -1;
  const std::string out = run_cli("--input a=0:0 --format json --lib " RW_REPO_DIR
                                  "/examples/fixtures/mini.lib " RW_REPO_DIR
                                  "/examples/fixtures/clean.v",
                                  code);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("\"SP002\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"worst\":\"warning\""), std::string::npos) << out;
}

TEST(RwstressCli, UsageErrorsExitSixtyFour) {
  int code = -1;
  run_cli("--input bogus --lib x.lib y.v", code);
  EXPECT_EQ(code, 64);
  run_cli("--default 0.9:0.1 --lib x.lib y.v", code);
  EXPECT_EQ(code, 64);
  const std::string fixture = "--lib " RW_REPO_DIR "/examples/fixtures/mini.lib " RW_REPO_DIR
                              "/examples/fixtures/clean.v";
  // Every numeric flag reads its whole value: trailing junk or a comma
  // decimal is a usage error before any work, not a silently used prefix.
  for (const char* flag : {"--clock 0.5x", "--clock 0,5", "--iterations 3x", "--iterations 3,5",
                          "--threads 4x", "--threads abc", "--threads 0", "--threads=4x"}) {
    const std::string out = run_cli(std::string(flag) + " " + fixture, code);
    EXPECT_EQ(code, 64) << flag << ": " << out;
    EXPECT_EQ(out.find("module "), std::string::npos) << flag << ": " << out;
  }
}

TEST(RwstressCli, TrailingJunkInAnIntervalIsAUsageError) {
  int code = -1;
  const std::string out = run_cli("--default 0:1x --lib " RW_REPO_DIR
                                  "/examples/fixtures/mini.lib " RW_REPO_DIR
                                  "/examples/fixtures/clean.v",
                                  code);
  EXPECT_EQ(code, 64) << out;
}

/// A one-gate netlist whose used net n1 has no driver: NL002 keeps the lint's
/// analysis from running, yet the analysis itself treats n1 as a free input.
std::string undriven_netlist(const char* tool) {
  const std::string path = std::string(::testing::TempDir()) + tool + "_undriven." +
                           std::to_string(static_cast<long>(::getpid())) + ".v";
  std::ofstream(path) << "module undriven (input a, output y);\n"
                         "  wire n1;\n"
                         "  NAND2_X1 u1 (.A(a), .B(n1), .Z(y));\n"
                         "endmodule\n";
  return path;
}

TEST(RwstressCli, AnalysisRefusalPrintsTheDiagnosticsAndExitsTwo) {
  int code = -1;
  std::string err;
  const std::string out = run_cli("--lib " RW_REPO_DIR "/examples/fixtures/mini.lib " RW_REPO_DIR
                                  "/tests/fixtures/broken.v",
                                  code, &err);
  EXPECT_EQ(code, 2);
  EXPECT_EQ(out,
            "error[NL003] broken:net m: driven by multiple instances (u3 and u4) (fix: keep "
            "exactly one driver per net)\n"
            "error[NL001] broken:inst u1: combinational cycle: u1 -> u2 -> u1 (fix: break the "
            "loop with a flop or restructure the logic)\n"
            "error[AN001] broken:inst u5: duty-cycle index (1.20, 0.50) is outside [0,1]; a "
            "stress duty cycle is a probability (fix: fix the duty-cycle extraction (or the "
            "annotation step's quantization))\n");
  EXPECT_EQ(err, "rwstress: stress: module 'broken' has multi-driven nets; lint it first\n");
}

TEST(RwstressCli, UnanalyzableLintStillPrintsTheReport) {
  const std::string netlist = undriven_netlist("rwstress");
  int code = -1;
  std::string err;
  const std::string out =
      run_cli("--lib " RW_REPO_DIR "/examples/fixtures/mini.lib " + netlist, code, &err);
  std::remove(netlist.c_str());
  EXPECT_EQ(code, 2);
  EXPECT_EQ(out,
            "module undriven: 3 nets, 1 instances\n"
            "fixed point: 1 iteration(s), converged; 0 widened net(s), 0 constant net(s)\n"
            "net a: [0.0000, 1.0000]\n"
            "net y: [0.0000, 1.0000]\n"
            "net n1: [0.0000, 1.0000]\n"
            "inst u1 (NAND2_X1): lambda_p [0.0000, 1.0000], lambda_n [0.0000, 1.0000]\n"
            "error[NL002] undriven:net n1: used net has no driver and is not a primary input "
            "(fix: drive the net or mark it as an input)\n"
            "rwstress: 1 error(s), 0 warning(s), 0 info\n");
  EXPECT_EQ(err, "");
}

}  // namespace
}  // namespace rw::stress
