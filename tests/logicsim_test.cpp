#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "charlib/factory.hpp"
#include "circuits/benchmarks.hpp"
#include "logicsim/activity.hpp"
#include "logicsim/simulator.hpp"
#include "logicsim/timingsim.hpp"
#include "netlist/builder.hpp"
#include "netlist/sdf.hpp"
#include "sta/analysis.hpp"
#include "synth/synthesizer.hpp"
#include "util/rng.hpp"

namespace rw::logicsim {
namespace {

charlib::LibraryFactory& factory() {
  static charlib::LibraryFactory f = [] {
    charlib::LibraryFactory::Options o;
    o.characterize.grid = charlib::OpcGrid::coarse();
    o.cell_subset = {"INV_X1",  "INV_X2",  "NAND2_X1", "NAND2_X2", "NOR2_X1",  "AND2_X1",
                     "XOR2_X1", "BUF_X2",  "AOI21_X1", "OAI21_X1", "MUX2_X1", "DFF_X1"};
    return charlib::LibraryFactory(o);
  }();
  return f;
}
const liberty::Library& lib() { return factory().library(aging::AgingScenario::fresh()); }

/// Full adder (sum, carry) + registered carry feedback: a tiny accumulator.
struct TestDesign {
  netlist::Module m{"fa"};
  netlist::NetId a, b, sum, carry_q;
};

TestDesign make_design() {
  TestDesign d;
  d.a = d.m.add_net("a");
  d.b = d.m.add_net("b");
  d.m.mark_input(d.a);
  d.m.mark_input(d.b);
  d.m.set_clock(d.m.add_net("clk"));
  netlist::NetlistBuilder builder(d.m, lib());
  const auto axb = builder.gate("XOR2_X1", {d.a, d.b});
  // carry_in comes from the registered carry-out.
  const auto cin_placeholder = d.m.add_net("cin");
  d.sum = builder.gate("XOR2_X1", {axb, cin_placeholder});
  const auto t1 = builder.gate("AND2_X1", {d.a, d.b});
  const auto t2 = builder.gate("AND2_X1", {axb, cin_placeholder});
  const auto cout = builder.gate("NAND2_X1", {builder.gate("INV_X1", {t1}),
                                              builder.gate("INV_X1", {t2})});
  // Register the carry: cin_placeholder needs a driver -> flop. Rebuild by
  // adding DFF driving cin.
  d.m.add_instance("r0", "DFF_X1", {cout, d.m.clock()}, cin_placeholder);
  d.carry_q = cin_placeholder;
  d.m.mark_output(d.sum);
  d.m.mark_output(d.carry_q);
  d.m.validate();
  return d;
}

TEST(CycleSimulator, FullAdderTruth) {
  TestDesign d = make_design();
  CycleSimulator sim(d.m, lib());
  // With carry state 0: sum = a ^ b.
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      sim.reset();
      sim.set_input(d.a, a != 0);
      sim.set_input(d.b, b != 0);
      sim.evaluate();
      EXPECT_EQ(sim.value(d.sum), (a ^ b) != 0) << a << b;
    }
  }
}

TEST(CycleSimulator, CarryAccumulates) {
  TestDesign d = make_design();
  CycleSimulator sim(d.m, lib());
  // a=b=1 -> carry=1 captured at the edge; next cycle sum = a^b^1.
  sim.set_input(d.a, true);
  sim.set_input(d.b, true);
  sim.step();
  sim.set_input(d.a, true);
  sim.set_input(d.b, false);
  sim.evaluate();
  EXPECT_TRUE(sim.value(d.carry_q));      // registered carry
  EXPECT_FALSE(sim.value(d.sum));         // 1 ^ 0 ^ 1 = 0
}

/// Reference evaluator built from the Module and Library alone: every
/// combinational instance is re-evaluated from its truth table, in netlist
/// order, until no net changes; flops hold the value captured at the edge.
class ReferenceSim {
 public:
  ReferenceSim(const netlist::Module& m, const liberty::Library& library)
      : m_(m), net_(static_cast<std::size_t>(m.net_count()), false) {
    for (const auto& inst : m.instances()) {
      const liberty::Cell& cell = library.at(inst.cell);
      is_flop_.push_back(cell.is_flop);
      truth_.push_back(cell.truth);
    }
    state_.assign(m.instances().size(), false);
  }

  void set(netlist::NetId net, bool v) { net_[static_cast<std::size_t>(net)] = v; }
  [[nodiscard]] bool value(netlist::NetId net) const { return net_[static_cast<std::size_t>(net)]; }

  void evaluate() {
    const auto& insts = m_.instances();
    for (std::size_t i = 0; i < insts.size(); ++i) {
      if (is_flop_[i]) set(insts[i].out, state_[i]);
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (std::size_t i = 0; i < insts.size(); ++i) {
        if (is_flop_[i]) continue;
        unsigned pattern = 0;
        for (std::size_t p = 0; p < insts[i].fanin.size(); ++p) {
          if (value(insts[i].fanin[p])) pattern |= 1U << p;
        }
        const bool v = ((truth_[i] >> pattern) & 1U) != 0;
        if (v != value(insts[i].out)) {
          set(insts[i].out, v);
          changed = true;
        }
      }
    }
  }

  void clock_edge() {
    const auto& insts = m_.instances();
    for (std::size_t i = 0; i < insts.size(); ++i) {
      if (is_flop_[i]) state_[i] = value(insts[i].fanin[0]);
    }
  }

 private:
  const netlist::Module& m_;
  std::vector<bool> net_;
  std::vector<bool> is_flop_;
  std::vector<std::uint64_t> truth_;
  std::vector<bool> state_;
};

TEST(CycleSimulator, MatchesFixedPointReferenceOnABenchmarkCircuit) {
  synth::SynthesisOptions opt;
  opt.multi_start = false;
  const auto& bc = circuits::benchmark_suite().front();
  const netlist::Module m = synth::synthesize(bc.build(), lib(), bc.name, opt).module;
  CycleSimulator sim(m, lib());
  ReferenceSim ref(m, lib());
  ActivityCollector act(m.net_count());
  const auto nets = static_cast<std::size_t>(m.net_count());
  std::vector<std::size_t> highs(nets, 0);
  std::vector<std::size_t> toggles(nets, 0);
  std::vector<bool> last(nets, false);
  constexpr int kCycles = 256;
  util::Rng rng(17);
  for (int k = 0; k < kCycles; ++k) {
    for (const netlist::NetId pi : m.inputs()) {
      if (pi == m.clock()) continue;
      const bool v = rng.chance(0.5);
      sim.set_input(pi, v);
      ref.set(pi, v);
    }
    sim.evaluate();
    ref.evaluate();
    act.observe(sim);
    int mismatches = 0;
    for (netlist::NetId n = 0; n < m.net_count(); ++n) {
      const auto i = static_cast<std::size_t>(n);
      if (sim.value(n) != ref.value(n)) ++mismatches;
      if (ref.value(n)) ++highs[i];
      if (k > 0 && ref.value(n) != last[i]) ++toggles[i];
      last[i] = ref.value(n);
    }
    ASSERT_EQ(mismatches, 0) << bc.name << " cycle " << k;
    sim.clock_edge();
    ref.clock_edge();
  }

  ASSERT_EQ(act.cycles(), static_cast<std::size_t>(kCycles));
  for (netlist::NetId n = 0; n < m.net_count(); ++n) {
    const auto i = static_cast<std::size_t>(n);
    EXPECT_EQ(*act.probability_high(n), static_cast<double>(highs[i]) / kCycles) << n;
    EXPECT_EQ(*act.toggle_rate(n), static_cast<double>(toggles[i]) / (kCycles - 1)) << n;
  }
  const auto duties = extract_duty_cycles(m, lib(), act);
  ASSERT_EQ(duties.size(), m.instances().size());
  for (std::size_t i = 0; i < duties.size(); ++i) {
    const auto& inst = m.instances()[i];
    const auto pins = lib().at(inst.cell).input_pins();
    double sum = 0.0;
    for (std::size_t p = 0; p < inst.fanin.size(); ++p) {
      sum += pins[p]->is_clock
                 ? 0.5
                 : static_cast<double>(highs[static_cast<std::size_t>(inst.fanin[p])]) / kCycles;
    }
    const double high = inst.fanin.empty() ? 0.5 : sum / static_cast<double>(inst.fanin.size());
    EXPECT_EQ(duties[i].lambda_n, high) << inst.name;
    EXPECT_EQ(duties[i].lambda_p, 1.0 - high) << inst.name;
  }

  // Only primary inputs take a value from outside.
  EXPECT_THROW(sim.set_input(m.instances().front().out, true), std::invalid_argument);
  EXPECT_THROW(sim.set_input(m.outputs().front(), true), std::invalid_argument);
}

TEST(Activity, ProbabilitiesAndDuties) {
  TestDesign d = make_design();
  CycleSimulator sim(d.m, lib());
  ActivityCollector act(d.m.net_count());
  // a always 1, b always 0.
  for (int k = 0; k < 100; ++k) {
    sim.set_input(d.a, true);
    sim.set_input(d.b, false);
    sim.evaluate();
    act.observe(sim);
    sim.clock_edge();
  }
  ASSERT_TRUE(act.probability_high(d.a).has_value());
  EXPECT_DOUBLE_EQ(*act.probability_high(d.a), 1.0);
  EXPECT_DOUBLE_EQ(*act.probability_high(d.b), 0.0);
  EXPECT_EQ(act.cycles(), 100u);
  // Constant inputs never toggle; measured rates are exactly 0.
  EXPECT_DOUBLE_EQ(*act.toggle_rate(d.a), 0.0);
  EXPECT_DOUBLE_EQ(*act.toggle_rate(d.b), 0.0);

  const auto duties = extract_duty_cycles(d.m, lib(), act);
  ASSERT_EQ(duties.size(), d.m.instances().size());
  for (const auto& duty : duties) {
    EXPECT_NEAR(duty.lambda_p + duty.lambda_n, 1.0, 1e-9);  // complementary stress
    EXPECT_GE(duty.lambda_n, 0.0);
    EXPECT_LE(duty.lambda_n, 1.0);
  }
  // First gate is XOR2(a, b) with P(a)=1, P(b)=0 -> avg high 0.5.
  EXPECT_NEAR(duties[0].lambda_n, 0.5, 1e-9);
}

TEST(Activity, ToggleRateCountsTransitions) {
  TestDesign d = make_design();
  CycleSimulator sim(d.m, lib());
  ActivityCollector act(d.m.net_count());
  // a alternates every cycle, b is constant: rate(a) = 1, rate(b) = 0, and
  // the first XOR2(a, b) output follows a exactly.
  const netlist::NetId axb = d.m.instances()[0].out;
  for (int k = 0; k < 64; ++k) {
    sim.set_input(d.a, (k & 1) != 0);
    sim.set_input(d.b, false);
    sim.evaluate();
    act.observe(sim);
    sim.clock_edge();
  }
  EXPECT_DOUBLE_EQ(*act.toggle_rate(d.a), 1.0);
  EXPECT_DOUBLE_EQ(*act.toggle_rate(d.b), 0.0);
  EXPECT_DOUBLE_EQ(*act.toggle_rate(axb), 1.0);
  // 64 observations alternating 0/1: exactly half are high.
  EXPECT_DOUBLE_EQ(*act.probability_high(d.a), 0.5);
}

TEST(Activity, NoDataIsExplicit) {
  TestDesign d = make_design();
  ActivityCollector act(d.m.net_count());
  // Zero observations: no probability, no rate — and no invented 0.5.
  EXPECT_FALSE(act.probability_high(d.a).has_value());
  EXPECT_FALSE(act.toggle_rate(d.a).has_value());
  EXPECT_THROW((void)extract_duty_cycles(d.m, lib(), act), std::invalid_argument);

  // One observation pins probabilities but no boundary has been seen yet.
  CycleSimulator sim(d.m, lib());
  sim.set_input(d.a, true);
  sim.set_input(d.b, false);
  sim.evaluate();
  act.observe(sim);
  EXPECT_TRUE(act.probability_high(d.a).has_value());
  EXPECT_FALSE(act.toggle_rate(d.a).has_value());
}

TEST(TimingSimulator, MatchesCycleSimAtGenerousPeriod) {
  TestDesign d = make_design();
  const sta::Sta sta(d.m, lib());
  const auto ann = netlist::compute_delay_annotation(sta);
  TimingSimulator timed(d.m, lib(), ann, 100000.0);
  CycleSimulator golden(d.m, lib());
  util::Rng rng(11);
  for (int k = 0; k < 200; ++k) {
    const bool a = rng.chance(0.5);
    const bool b = rng.chance(0.5);
    timed.set_input(d.a, a);
    timed.set_input(d.b, b);
    golden.set_input(d.a, a);
    golden.set_input(d.b, b);
    golden.evaluate();
    timed.run_cycle();
    EXPECT_EQ(timed.sampled(d.sum), golden.value(d.sum)) << "cycle " << k;
    EXPECT_EQ(timed.sampled(d.carry_q), golden.value(d.carry_q)) << "cycle " << k;
    golden.clock_edge();
  }
}

TEST(TimingSimulator, TooShortPeriodCausesCaptureErrors) {
  TestDesign d = make_design();
  const sta::Sta sta(d.m, lib());
  const auto ann = netlist::compute_delay_annotation(sta);
  // Run far below the critical delay: flops must capture wrong values at
  // least once under random stimulus.
  TimingSimulator timed(d.m, lib(), ann, 0.25 * sta.critical_delay_ps());
  CycleSimulator golden(d.m, lib());
  util::Rng rng(12);
  int mismatches = 0;
  for (int k = 0; k < 200; ++k) {
    const bool a = rng.chance(0.5);
    const bool b = rng.chance(0.5);
    timed.set_input(d.a, a);
    timed.set_input(d.b, b);
    golden.set_input(d.a, a);
    golden.set_input(d.b, b);
    golden.evaluate();
    timed.run_cycle();
    if (timed.sampled(d.sum) != golden.value(d.sum)) ++mismatches;
    golden.clock_edge();
  }
  EXPECT_GT(mismatches, 0);
}

TEST(TimingSimulator, RejectsBadPeriodAndInputs) {
  TestDesign d = make_design();
  const sta::Sta sta(d.m, lib());
  const auto ann = netlist::compute_delay_annotation(sta);
  EXPECT_THROW(TimingSimulator(d.m, lib(), ann, 0.0), std::invalid_argument);
  TimingSimulator timed(d.m, lib(), ann, 1000.0);
  EXPECT_THROW(timed.set_input(d.sum, true), std::invalid_argument);
}

}  // namespace
}  // namespace rw::logicsim
