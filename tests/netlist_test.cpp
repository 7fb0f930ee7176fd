#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "charlib/factory.hpp"
#include "circuits/benchmarks.hpp"
#include "lint/linter.hpp"
#include "logicsim/simulator.hpp"
#include "netlist/annotate.hpp"
#include "netlist/builder.hpp"
#include "netlist/graph.hpp"
#include "netlist/netlist.hpp"
#include "netlist/sdf.hpp"
#include "netlist/verilog.hpp"
#include "sta/analysis.hpp"
#include "stress/activity_bounds.hpp"
#include "stress/analyzer.hpp"
#include "synth/synthesizer.hpp"

namespace rw::netlist {
namespace {

/// Shared coarse-grid library with the handful of cells these tests use.
const liberty::Library& lib() {
  static charlib::LibraryFactory factory = [] {
    charlib::LibraryFactory::Options o;
    o.characterize.grid = charlib::OpcGrid::coarse();
    o.cell_subset = {"INV_X1", "NAND2_X1", "NOR2_X1", "AND2_X1", "DFF_X1", "BUF_X2"};
    return charlib::LibraryFactory(o);
  }();
  return factory.library(aging::AgingScenario::fresh());
}

Module small_design() {
  Module m("top");
  const NetId a = m.add_net("a");
  const NetId b = m.add_net("b");
  m.mark_input(a);
  m.mark_input(b);
  m.set_clock(m.add_net("clk"));
  NetlistBuilder builder(m, lib());
  const NetId n1 = builder.gate("NAND2_X1", {a, b});
  const NetId n2 = builder.gate("INV_X1", {n1});
  const NetId q = builder.flop("DFF_X1", n2);
  const NetId z = builder.gate("AND2_X1", {q, a});
  m.mark_output(z);
  return m;
}

TEST(Module, StructureQueries) {
  const Module m = small_design();
  EXPECT_EQ(m.instances().size(), 4u);
  EXPECT_EQ(m.inputs().size(), 3u);  // a, b, clk
  EXPECT_EQ(m.outputs().size(), 1u);
  const NetId a = m.find_net("a");
  EXPECT_EQ(m.driver(a), -1);
  // a feeds the NAND and the AND.
  const Fanout fanout(m);
  EXPECT_EQ(fanout.sinks(a).size(), 2u);
  EXPECT_EQ(fanout.count(a), 2);
  m.validate();
}

TEST(Module, RejectsDoubleDriver) {
  Module m("t");
  const NetId x = m.add_net("x");
  const NetId y = m.add_net("y");
  m.mark_input(x);
  m.add_instance("g1", "INV_X1", {x}, y);
  EXPECT_THROW(m.add_instance("g2", "INV_X1", {x}, y), std::invalid_argument);
}

TEST(Module, ValidateCatchesUndrivenUsedNet) {
  Module m("t");
  const NetId x = m.add_net("x");
  const NetId y = m.add_net("y");
  m.add_instance("g1", "INV_X1", {x}, y);  // x undriven, not an input
  m.mark_output(y);
  EXPECT_THROW(m.validate(), std::runtime_error);
}

TEST(Module, RenameNet) {
  Module m("t");
  const NetId x = m.add_net("x");
  m.rename_net(x, "better");
  EXPECT_EQ(m.find_net("x"), kNoNet);
  EXPECT_EQ(m.find_net("better"), x);
  const NetId y = m.add_net("y");
  EXPECT_THROW(m.rename_net(y, "better"), std::invalid_argument);
}

/// Compares the fanout index with a brute-force scan of every instance pin
/// and primary output, net by net.
void expect_fanout_matches_scan(const Module& m) {
  const Fanout fanout(m);
  for (NetId n = 0; n < m.net_count(); ++n) {
    std::vector<std::pair<int, int>> want;
    for (std::size_t i = 0; i < m.instances().size(); ++i) {
      const auto& fanin = m.instances()[i].fanin;
      for (std::size_t p = 0; p < fanin.size(); ++p) {
        if (fanin[p] == n) want.emplace_back(static_cast<int>(i), static_cast<int>(p));
      }
    }
    std::vector<std::pair<int, int>> got;
    for (const PinUse use : fanout.sinks(n)) got.emplace_back(use.instance, use.pin);
    EXPECT_EQ(got, want) << m.net_name(n);
    const auto po = static_cast<int>(std::count(m.outputs().begin(), m.outputs().end(), n));
    EXPECT_EQ(fanout.po_uses(n), po) << m.net_name(n);
    EXPECT_EQ(fanout.count(n), static_cast<int>(want.size()) + po) << m.net_name(n);
  }
}

/// The RISC-5P core, synthesized once for every test that needs a large
/// sequential netlist.
const Module& risc5() {
  static const Module m = [] {
    synth::SynthesisOptions opt;
    opt.multi_start = false;
    opt.enable_sizing = false;
    return synth::synthesize(circuits::make_risc5(), lib(), "risc5", opt).module;
  }();
  return m;
}

TEST(Fanout, MatchesABruteForceScanOnASynthesizedBenchmark) {
  const Module& m = risc5();
  ASSERT_GT(m.instances().size(), 1000u);
  expect_fanout_matches_scan(m);
}

TEST(Fanout, EdgeCases) {
  Module m("edge");
  const NetId a = m.add_net("a");
  const NetId b = m.add_net("b");
  const NetId y = m.add_net("y");
  const NetId pass = m.add_net("pass");
  const NetId undriven = m.add_net("u");
  const NetId z = m.add_net("z");
  const NetId dangling = m.add_net("d");
  m.mark_input(a);
  m.mark_input(pass);
  m.add_instance("inv", "INV_X1", {a}, b);
  m.add_instance("nand", "NAND2_X1", {b, b}, y);  // one net on both pins
  m.add_instance("and", "AND2_X1", {undriven, a}, z);
  m.add_instance_lenient("open", "INV_X1", {a}, kNoNet);  // no output net
  m.mark_output(y);     // read only as a primary output
  m.mark_output(pass);  // input wired straight to an output
  m.mark_output(z);
  expect_fanout_matches_scan(m);

  const Fanout fanout(m);
  ASSERT_EQ(fanout.sinks(b).size(), 2u);
  EXPECT_EQ(fanout.sinks(b)[0].pin, 0);
  EXPECT_EQ(fanout.sinks(b)[1].pin, 1);
  EXPECT_EQ(fanout.count(b), 2);
  EXPECT_TRUE(fanout.sinks(y).empty());
  EXPECT_EQ(fanout.count(y), 1);
  EXPECT_EQ(fanout.count(pass), 1);
  EXPECT_EQ(fanout.sinks(undriven).size(), 1u);
  EXPECT_EQ(fanout.count(dangling), 0);
  // a feeds inv, and, and the output-less instance.
  EXPECT_EQ(fanout.count(a), 3);

  // check() flags the undriven used net and the missing output, but not the
  // dangling net nor the PO-only one.
  std::vector<std::string> found;
  for (const auto& d : m.check()) found.push_back(d.rule_id + " " + d.location);
  EXPECT_EQ(found, (std::vector<std::string>{"NL002 edge:net u", "NL006 edge:inst open"}));
}

TEST(Graph, LevelsAreLongestPathsOnASynthesizedBenchmark) {
  const Module& m = risc5();
  const Graph graph(m, lib());
  ASSERT_TRUE(graph.unlevelled().empty());
  const std::size_t n = m.instances().size();
  std::vector<int> level_of(n, -1);
  std::size_t flops = 0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(graph.is_flop(i), lib().at(m.instances()[i].cell).is_flop);
    if (graph.is_flop(i)) ++flops;
  }
  ASSERT_GT(flops, 0u);
  ASSERT_GT(graph.level_count(), 1u);
  std::size_t levelled = 0;
  for (std::size_t l = 0; l < graph.level_count(); ++l) {
    const auto lv = graph.level(l);
    ASSERT_FALSE(lv.empty()) << l;
    EXPECT_TRUE(std::is_sorted(lv.begin(), lv.end())) << l;
    for (const std::int32_t i : lv) {
      EXPECT_EQ(level_of[static_cast<std::size_t>(i)], -1) << "listed twice: " << i;
      level_of[static_cast<std::size_t>(i)] = static_cast<int>(l);
    }
    levelled += lv.size();
  }
  EXPECT_EQ(levelled, n - flops);
  EXPECT_EQ(graph.order().size(), levelled);
  // Every instance sits one level above its deepest combinational fanin
  // driver; sources (inputs, flop outputs) count as level -1.
  for (std::size_t i = 0; i < n; ++i) {
    if (graph.is_flop(i)) continue;
    int want = 0;
    for (const NetId f : m.instances()[i].fanin) {
      const int d = m.driver(f);
      if (d < 0 || graph.is_flop(static_cast<std::size_t>(d))) continue;
      want = std::max(want, level_of[static_cast<std::size_t>(d)] + 1);
    }
    EXPECT_EQ(level_of[i], want) << m.instances()[i].name;
  }
}

TEST(Graph, ANetOnTwoPinsOfOneGateIsNotACycle) {
  Module m("dup_pins");
  const NetId a = m.add_net("a");
  const NetId b = m.add_net("b");
  const NetId y = m.add_net("y");
  m.mark_input(a);
  m.add_instance("inv", "INV_X1", {a}, b);
  m.add_instance("nand", "NAND2_X1", {b, b}, y);
  m.mark_output(y);
  const Graph graph(m, lib());
  EXPECT_TRUE(graph.unlevelled().empty());
  ASSERT_EQ(graph.level_count(), 2u);
  EXPECT_EQ(std::vector<std::int32_t>(graph.level(0).begin(), graph.level(0).end()),
            std::vector<std::int32_t>{0});
  EXPECT_EQ(std::vector<std::int32_t>(graph.level(1).begin(), graph.level(1).end()),
            std::vector<std::int32_t>{1});
  // One edge per pin.
  EXPECT_EQ(std::vector<std::int32_t>(graph.sinks(0).begin(), graph.sinks(0).end()),
            (std::vector<std::int32_t>{1, 1}));
}

TEST(Graph, ATwoGateLoopIsUnlevelledAndEveryConsumerRefusesIt) {
  Module m("top");
  const NetId a = m.add_net("a");
  const NetId n1 = m.add_net("n1");
  const NetId n2 = m.add_net("n2");
  const NetId q = m.add_net("q");
  m.mark_input(a);
  m.set_clock(m.add_net("clk"));
  m.add_instance("g1", "NAND2_X1", {n2, a}, n1);
  m.add_instance("g2", "INV_X1", {n1}, n2);
  m.add_instance("ff", "DFF_X1", {n2, m.clock()}, q);  // a flop does not break it
  m.add_instance("g3", "INV_X1", {q}, m.add_net("y"));
  m.mark_output(m.find_net("y"));
  const Graph graph(m, lib());
  EXPECT_EQ(std::vector<std::int32_t>(graph.unlevelled().begin(), graph.unlevelled().end()),
            (std::vector<std::int32_t>{0, 1}));
  EXPECT_EQ(std::vector<std::int32_t>(graph.order().begin(), graph.order().end()),
            std::vector<std::int32_t>{3});
  EXPECT_THROW(graph.require_acyclic("test"), std::runtime_error);

  EXPECT_THROW(sta::Sta(m, lib()), std::runtime_error);
  EXPECT_THROW(stress::analyze(m, lib()), std::runtime_error);
  EXPECT_THROW(stress::analyze_activity(m, lib()), std::runtime_error);
  EXPECT_THROW(logicsim::CycleSimulator(m, lib()), std::runtime_error);

  lint::LintSubject subject;
  subject.module = &m;
  subject.library = &lib();
  std::vector<std::string> cycles;
  for (const auto& d : lint::Linter::netlist_linter().run(subject)) {
    if (d.rule_id == lint::rules::kCombCycle) cycles.push_back(d.location + " " + d.message);
  }
  EXPECT_EQ(cycles, std::vector<std::string>{"top:inst g1 combinational cycle: g1 -> g2 -> g1"});
}

TEST(Verilog, RoundTrip) {
  const Module m = small_design();
  const std::string text = write_verilog(m, lib());
  const Module parsed = parse_verilog(text, lib());

  EXPECT_EQ(parsed.name(), "top");
  EXPECT_EQ(parsed.instances().size(), m.instances().size());
  EXPECT_EQ(parsed.inputs().size(), m.inputs().size());
  EXPECT_EQ(parsed.outputs().size(), m.outputs().size());
  EXPECT_NE(parsed.clock(), kNoNet);
  EXPECT_EQ(parsed.net_name(parsed.clock()), "clk");
  parsed.validate();
  // Same structure: instance cells and connection names match.
  for (std::size_t i = 0; i < m.instances().size(); ++i) {
    EXPECT_EQ(parsed.instances()[i].cell, m.instances()[i].cell);
    EXPECT_EQ(parsed.net_name(parsed.instances()[i].out), m.net_name(m.instances()[i].out));
  }
}

TEST(Verilog, ParserRejectsUnknownCellAndPin) {
  EXPECT_THROW(parse_verilog("module t (input a); FOO u (.A(a)); endmodule", lib()),
               std::runtime_error);
  EXPECT_THROW(
      parse_verilog("module t (input a, output z); wire z; INV_X1 u (.BAD(a), .Z(z)); endmodule",
                    lib()),
      std::runtime_error);
}

TEST(Annotate, RenamesWithQuantizedDuties) {
  Module m = small_design();
  std::vector<InstanceDuty> duties(m.instances().size(), InstanceDuty{0.42, 0.58});
  duties[1] = InstanceDuty{1.0, 0.0};
  const auto corners = annotate_with_duty_cycles(m, duties);
  EXPECT_EQ(m.instances()[0].cell, "NAND2_X1_0.40_0.60");
  EXPECT_EQ(m.instances()[1].cell, "INV_X1_1.00_0.00");
  ASSERT_EQ(corners.size(), 2u);
}

TEST(Annotate, RejectsSizeMismatch) {
  Module m = small_design();
  EXPECT_THROW(annotate_with_duty_cycles(m, {}), std::invalid_argument);
}

TEST(Sdf, AnnotationAndWriter) {
  const Module m = small_design();
  const sta::Sta sta(m, lib());
  const DelayAnnotation ann = compute_delay_annotation(sta);
  ASSERT_EQ(ann.arcs.size(), m.instances().size());
  // Every combinational arc got a positive delay.
  EXPECT_GT(ann.arcs[0][0].out_rise_ps, 0.0);
  EXPECT_GT(ann.arcs[0][1].out_fall_ps, 0.0);
  // Flop CK entry holds the CK->Q delay.
  EXPECT_GT(ann.arcs[2][1].out_rise_ps, 5.0);

  const std::string sdf = write_sdf(m, lib(), ann);
  EXPECT_NE(sdf.find("(DELAYFILE"), std::string::npos);
  EXPECT_NE(sdf.find("(CELLTYPE \"NAND2_X1\")"), std::string::npos);
  EXPECT_NE(sdf.find("IOPATH A Z"), std::string::npos);
  EXPECT_NE(sdf.find("(TIMESCALE 1ps)"), std::string::npos);
}

}  // namespace
}  // namespace rw::netlist
