#include <gtest/gtest.h>

#include "charlib/factory.hpp"
#include "circuits/arith.hpp"
#include "logicsim/simulator.hpp"
#include "synth/cuts.hpp"
#include "synth/decompose.hpp"
#include "sta/analysis.hpp"
#include "synth/synthesizer.hpp"
#include "util/rng.hpp"

namespace rw::synth {
namespace {

charlib::LibraryFactory& factory() {
  static charlib::LibraryFactory f = [] {
    charlib::LibraryFactory::Options o;
    o.characterize.grid = charlib::OpcGrid::coarse();
    // A representative mapping library: inverters/buffers, NAND/NOR family,
    // compound cells, drive variants, flop.
    o.cell_subset = {"INV_X1",  "INV_X2",  "INV_X4",  "BUF_X2",   "NAND2_X1", "NAND2_X2",
                     "NAND2_X4", "NAND3_X1", "NOR2_X1", "AND2_X1", "OR2_X1",   "XOR2_X1",
                     "XNOR2_X1", "AOI21_X1", "OAI21_X1", "MUX2_X1", "DFF_X1"};
    return charlib::LibraryFactory(o);
  }();
  return f;
}
const liberty::Library& lib() { return factory().library(aging::AgingScenario::fresh()); }

Ir adder_ir(int width) {
  Ir ir;
  const auto a = circuits::input_word(ir, "a", width);
  const auto b = circuits::input_word(ir, "b", width);
  circuits::output_word(ir, "s", circuits::add(ir, a, b));
  return ir;
}

TEST(Ir, SimulatorEvaluatesAdder) {
  Ir ir = adder_ir(8);
  IrSimulator sim(ir);
  util::Rng rng(3);
  for (int k = 0; k < 100; ++k) {
    const unsigned a = static_cast<unsigned>(rng.next_below(256));
    const unsigned b = static_cast<unsigned>(rng.next_below(256));
    for (int i = 0; i < 8; ++i) {
      sim.set_input("a" + std::to_string(i), ((a >> i) & 1U) != 0);
      sim.set_input("b" + std::to_string(i), ((b >> i) & 1U) != 0);
    }
    sim.evaluate();
    unsigned s = 0;
    for (int i = 0; i < 8; ++i) {
      if (sim.output("s" + std::to_string(i))) s |= 1U << i;
    }
    EXPECT_EQ(s, (a + b) & 0xFFu);
  }
}

TEST(Ir, FlopFeedbackCounts) {
  Ir ir;
  const auto count = circuits::register_placeholder(ir, 4);
  const auto next = circuits::add(ir, count, circuits::constant_word(ir, 1, 4));
  circuits::connect_register(ir, count, next);
  circuits::output_word(ir, "c", count);
  IrSimulator sim(ir);
  for (int k = 0; k < 20; ++k) {
    sim.evaluate();
    unsigned c = 0;
    for (int i = 0; i < 4; ++i) {
      if (sim.output("c" + std::to_string(i))) c |= 1U << i;
    }
    EXPECT_EQ(c, static_cast<unsigned>(k) & 0xFu);
    sim.clock_edge();
  }
}

TEST(Ir, ValidateCatchesDanglingFlop) {
  Ir ir;
  ir.flop();
  EXPECT_THROW(ir.validate(), std::runtime_error);
}

TEST(Decompose, ConstantFoldingAndStrash) {
  Ir ir;
  const int a = ir.input("a");
  const int one = ir.constant(true);
  const int x = ir.and_(a, one);       // = a
  const int y = ir.not_(ir.not_(x));   // = a
  const int n1 = ir.nand_(a, y);       // nand(a, a) = !a
  ir.output("z", n1);
  const SubjectGraph g = decompose(ir);
  // Expect exactly: PI + one INV. No NANDs survive folding.
  EXPECT_EQ(g.nand_count(), 0u);
  EXPECT_EQ(g.nodes.size(), 2u);
}

TEST(Decompose, XorCostsFourNands) {
  Ir ir;
  const int a = ir.input("a");
  const int b = ir.input("b");
  ir.output("z", ir.xor_(a, b));
  EXPECT_EQ(decompose(ir).nand_count(), 4u);
}

TEST(Decompose, RejectsConstantOutput) {
  Ir ir;
  const int a = ir.input("a");
  ir.output("z", ir.and_(a, ir.constant(false)));
  EXPECT_THROW(decompose(ir), std::runtime_error);
}

TEST(Cuts, TruthTablesOfXorStructure) {
  Ir ir;
  const int a = ir.input("a");
  const int b = ir.input("b");
  ir.output("z", ir.xor_(a, b));
  const SubjectGraph g = decompose(ir);
  const auto cuts = enumerate_cuts(g);
  // The output node must own a 2-leaf cut computing XOR (truth 0110).
  const int root = g.pos.front().second;
  bool found_xor = false;
  for (const auto& cut : cuts[static_cast<std::size_t>(root)]) {
    if (cut.size == 2 && cut.truth == 0b0110) found_xor = true;
  }
  EXPECT_TRUE(found_xor);
}

TEST(Cuts, ExpandTruthProperty) {
  // Expanding x0 AND x1 from leaves {3,7} to {3,5,7} keeps semantics.
  Cut from;
  from.leaves = {{3, 7, -1, -1}};
  from.size = 2;
  from.truth = 0b1000;  // AND over (leaf3, leaf7)
  Cut to;
  to.leaves = {{3, 5, 7, -1}};
  to.size = 3;
  const std::uint16_t big = expand_truth(from.truth, from, to);
  for (unsigned p = 0; p < 8; ++p) {
    const bool l3 = (p & 1U) != 0;   // position 0
    const bool l7 = (p & 4U) != 0;   // position 2
    EXPECT_EQ(((big >> p) & 1U) != 0, l3 && l7) << p;
  }
}

/// Exhaustive equivalence of a mapped netlist against the IR golden model.
void expect_equivalent(const Ir& ir, const netlist::Module& mapped, int n_inputs,
                       const std::vector<std::string>& in_names,
                       const std::vector<std::string>& out_names) {
  IrSimulator gold(ir);
  logicsim::CycleSimulator netsim(mapped, lib());
  util::Rng rng(99);
  const int vectors = n_inputs <= 12 ? (1 << n_inputs) : 300;
  for (int v = 0; v < vectors; ++v) {
    for (int i = 0; i < n_inputs; ++i) {
      const bool bit = n_inputs <= 12 ? ((v >> i) & 1) != 0 : rng.chance(0.5);
      gold.set_input(in_names[static_cast<std::size_t>(i)], bit);
      netsim.set_input(mapped.find_net(in_names[static_cast<std::size_t>(i)]), bit);
    }
    gold.evaluate();
    netsim.evaluate();
    for (const auto& name : out_names) {
      EXPECT_EQ(netsim.value(mapped.find_net(name)), gold.output(name)) << name << " v=" << v;
    }
    gold.clock_edge();
    netsim.clock_edge();
  }
}

TEST(Mapper, AdderEquivalenceExhaustive) {
  Ir ir = adder_ir(4);
  SynthesisOptions opt;
  opt.multi_start = false;
  opt.enable_sizing = false;
  const SynthesisResult res = synthesize(ir, lib(), "add4", opt);
  res.module.validate();
  std::vector<std::string> ins;
  std::vector<std::string> outs;
  for (int i = 0; i < 4; ++i) {
    ins.push_back("a" + std::to_string(i));
    outs.push_back("s" + std::to_string(i));
  }
  for (int i = 0; i < 4; ++i) ins.push_back("b" + std::to_string(i));
  expect_equivalent(ir, res.module, 8, ins, outs);
}

TEST(Mapper, UsesCompoundCells) {
  // A mux-rich circuit should map to MUX2/AOI-class cells, not just NAND2.
  Ir ir;
  const int s = ir.input("s");
  std::vector<std::string> outs;
  for (int i = 0; i < 4; ++i) {
    const int a = ir.input("a" + std::to_string(i));
    const int b = ir.input("b" + std::to_string(i));
    ir.output("z" + std::to_string(i), ir.mux(s, a, b));
  }
  SynthesisOptions opt;
  opt.multi_start = false;
  opt.enable_sizing = false;
  const SynthesisResult res = synthesize(ir, lib(), "muxes", opt);
  bool has_compound = false;
  for (const auto& inst : res.module.instances()) {
    const auto& family = lib().at(inst.cell).family;
    if (family == "MUX2" || family == "AOI21" || family == "OAI21") has_compound = true;
  }
  EXPECT_TRUE(has_compound);
  // Far fewer gates than the 4-NAND-per-mux decomposition.
  EXPECT_LT(res.gate_count, 16u);
}

TEST(Sizing, ImprovesOrPreservesCp) {
  Ir ir = adder_ir(8);
  SynthesisOptions no_size;
  no_size.multi_start = false;
  no_size.enable_sizing = false;
  SynthesisOptions with_size = no_size;
  with_size.enable_sizing = true;
  const double cp0 = synthesize(ir, lib(), "a", no_size).cp_ps;
  const SynthesisResult sized = synthesize(ir, lib(), "b", with_size);
  EXPECT_LE(sized.cp_ps, cp0 + 1e-9);
  EXPECT_GE(sized.sizing.upsizes, 0);
}

TEST(Sizing, PreservesFunction) {
  Ir ir = adder_ir(4);
  SynthesisOptions opt;
  opt.multi_start = false;
  const SynthesisResult res = synthesize(ir, lib(), "add4s", opt);
  std::vector<std::string> ins;
  std::vector<std::string> outs;
  for (int i = 0; i < 4; ++i) {
    ins.push_back("a" + std::to_string(i));
    outs.push_back("s" + std::to_string(i));
  }
  for (int i = 0; i < 4; ++i) ins.push_back("b" + std::to_string(i));
  expect_equivalent(ir, res.module, 8, ins, outs);
}

TEST(Buffering, SplitsHighFanout) {
  // One input driving 30 inverters must get a buffer tree.
  Ir ir;
  const int a = ir.input("a");
  for (int i = 0; i < 30; ++i) ir.output("z" + std::to_string(i), ir.not_(a));
  SynthesisOptions opt;
  opt.multi_start = false;
  opt.enable_sizing = false;
  opt.buffering.max_fanout = 8;
  const SynthesisResult res = synthesize(ir, lib(), "fan", opt);
  const netlist::Fanout fanout(res.module);
  int max_fanout = 0;
  for (netlist::NetId n = 0; n < res.module.net_count(); ++n) {
    if (n == res.module.clock()) continue;
    max_fanout = std::max(max_fanout, fanout.count(n));
  }
  EXPECT_LE(max_fanout, 8);
}

TEST(Synthesizer, AgedLibraryYieldsAgedAwareCp) {
  // Synthesizing against the aged library reports a CP measured against it,
  // which must exceed the same netlist's fresh CP.
  Ir ir = adder_ir(6);
  const auto& aged = factory().library(aging::AgingScenario::worst_case(10));
  SynthesisOptions opt;
  opt.multi_start = false;
  const SynthesisResult res = synthesize(ir, aged, "addaged", opt);
  const double fresh_cp = sta::Sta(res.module, lib()).critical_delay_ps();
  EXPECT_GT(res.cp_ps, fresh_cp);
}

}  // namespace
}  // namespace rw::synth
