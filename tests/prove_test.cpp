#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "charlib/factory.hpp"
#include "charlib/interval_query.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/guardband_flow.hpp"
#include "flow/prove_flow.hpp"
#include "liberty/parser.hpp"
#include "lint/linter.hpp"
#include "netlist/annotate.hpp"
#include "netlist/builder.hpp"
#include "sta/analysis.hpp"
#include "sta/interval_sta.hpp"
#include "stress/analyzer.hpp"
#include "synth/synthesizer.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace rw {
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

// ------------------------------------------------------- bracket scenarios --

TEST(BracketScenarios, ExtremeQuantizedCornersInDeterministicOrder) {
  stress::InstanceBounds b;
  b.lambda_p = stress::Interval{0.32, 0.57};
  b.lambda_n = stress::Interval{0.43, 0.68};
  const auto corners = charlib::bracket_scenarios(b, 10.0);
  ASSERT_EQ(corners.size(), 4u);
  // λp low→high, λn varying fastest; endpoints quantized onto the 0.1 grid.
  EXPECT_DOUBLE_EQ(corners[0].lambda_p, 0.3);
  EXPECT_DOUBLE_EQ(corners[0].lambda_n, 0.4);
  EXPECT_DOUBLE_EQ(corners[1].lambda_p, 0.3);
  EXPECT_DOUBLE_EQ(corners[1].lambda_n, 0.7);
  EXPECT_DOUBLE_EQ(corners[2].lambda_p, 0.6);
  EXPECT_DOUBLE_EQ(corners[2].lambda_n, 0.4);
  EXPECT_DOUBLE_EQ(corners[3].lambda_p, 0.6);
  EXPECT_DOUBLE_EQ(corners[3].lambda_n, 0.7);
  for (const auto& c : corners) EXPECT_DOUBLE_EQ(c.years, 10.0);
}

TEST(BracketScenarios, PointBoundsCollapseToOneCorner) {
  stress::InstanceBounds b;
  b.lambda_p = stress::Interval::point(0.5);
  b.lambda_n = stress::Interval::point(0.5);
  const auto corners = charlib::bracket_scenarios(b, 10.0);
  ASSERT_EQ(corners.size(), 1u);
  EXPECT_DOUBLE_EQ(corners[0].lambda_p, 0.5);
  EXPECT_DOUBLE_EQ(corners[0].lambda_n, 0.5);
}

// --------------------------------------------------- scalar-collapse (edge) --

/// A small all-combinational design over the fixture cells; proven.lib holds
/// the λ-indexed corners of exactly these base cells.
netlist::Module fixture_module(const liberty::Library& fresh) {
  netlist::Module m("collapse");
  const auto a = m.add_net("a");
  const auto b_in = m.add_net("b");
  const auto c = m.add_net("c");
  m.mark_input(a);
  m.mark_input(b_in);
  m.mark_input(c);
  netlist::NetlistBuilder nb(m, fresh);
  const auto n1 = nb.gate("NAND2_X1", {a, b_in});
  const auto n2 = nb.gate("INV_X1", {n1});
  const auto n3 = nb.gate("AND2_X1", {n2, c});
  const auto y = nb.gate("INV_X1", {n3});
  m.mark_output(y);
  return m;
}

/// Zero-width λ intervals (a single bracketing corner per instance, no
/// interp markers) must collapse the interval STA to scalar STA *bitwise*:
/// identical arrivals, slews, and critical delay — not merely close.
TEST(ScalarCollapse, SingleCornerReproducesScalarStaBitwise) {
  const liberty::Library fresh =
      liberty::parse_library_file(RW_REPO_DIR "/examples/fixtures/mini.lib");
  const liberty::Library aged =
      liberty::parse_library_file(RW_REPO_DIR "/examples/fixtures/proven.lib");
  const netlist::Module m = fixture_module(fresh);

  // Scalar side: the same design annotated at the (1.0, 1.0) corner, timed
  // against the λ-indexed library directly.
  netlist::Module annotated = m;
  const std::vector<netlist::InstanceDuty> duties(annotated.instances().size(),
                                                  netlist::InstanceDuty{1.0, 1.0});
  netlist::annotate_with_duty_cycles(annotated, duties);
  const sta::Sta scalar(annotated, aged, {});

  // Interval side: one bracketing corner per instance — a point λ interval.
  std::vector<charlib::InstanceCorners> corners;
  for (const auto& inst : m.instances()) {
    charlib::InstanceCorners ic;
    ic.fresh = fresh.find(inst.cell);
    ASSERT_NE(ic.fresh, nullptr) << inst.cell;
    const liberty::Cell* corner = aged.find(annotated.instances()[corners.size()].cell);
    ASSERT_NE(corner, nullptr) << annotated.instances()[corners.size()].cell;
    ic.corners = {corner};
    corners.push_back(ic);
  }
  const sta::IntervalSta ista(m, fresh, corners, {});

  EXPECT_FALSE(ista.vacuous());
  for (int n = 0; n < m.net_count(); ++n) {
    const auto net = static_cast<netlist::NetId>(n);
    const sta::NetTiming& st = scalar.timing(net);
    const sta::NetIntervalTiming& it = ista.timing(net);
    for (int e = 0; e < 2; ++e) {
      EXPECT_EQ(it.arrival[e].lo, st.arrival_ps[e]) << "net " << n << " edge " << e;
      EXPECT_EQ(it.arrival[e].hi, st.arrival_ps[e]) << "net " << n << " edge " << e;
      EXPECT_EQ(it.slew[e].lo, st.slew_ps[e]) << "net " << n << " edge " << e;
      EXPECT_EQ(it.slew[e].hi, st.slew_ps[e]) << "net " << n << " edge " << e;
    }
  }
  const stress::RealInterval cp = ista.critical_interval_ps();
  EXPECT_EQ(cp.lo, scalar.critical_delay_ps());
  EXPECT_EQ(cp.hi, scalar.critical_delay_ps());
  ASSERT_EQ(ista.endpoints().size(), scalar.endpoints().size());
  for (std::size_t i = 0; i < ista.endpoints().size(); ++i) {
    EXPECT_EQ(ista.endpoints()[i].net, scalar.endpoints()[i].net) << i;
    EXPECT_EQ(ista.endpoints()[i].rising, scalar.endpoints()[i].rising) << i;
  }
}

/// A missing bracket corner — even with others resolved — must poison the
/// proof: a partial bracket does not bound the λ interval.
TEST(ScalarCollapse, PartialBracketIsVacuous) {
  const liberty::Library fresh =
      liberty::parse_library_file(RW_REPO_DIR "/examples/fixtures/mini.lib");
  const liberty::Library aged =
      liberty::parse_library_file(RW_REPO_DIR "/examples/fixtures/proven.lib");
  const netlist::Module m = fixture_module(fresh);

  std::vector<charlib::InstanceCorners> corners;
  for (const auto& inst : m.instances()) {
    charlib::InstanceCorners ic;
    ic.fresh = fresh.find(inst.cell);
    ic.corners = {aged.find(util::indexed_cell_name(inst.cell, 1.0, 1.0))};
    ASSERT_NE(ic.corners[0], nullptr);
    corners.push_back(ic);
  }
  corners[1].missing = 1;  // one unresolved corner on one instance
  const sta::IntervalSta ista(m, fresh, corners, {});
  EXPECT_TRUE(ista.vacuous());
  ASSERT_EQ(ista.vacuous_instances().size(), 1u);
  EXPECT_EQ(ista.vacuous_instances()[0], 1);
  EXPECT_TRUE(ista.summarize(0.0).vacuous);
}

// ---------------------------------------------------------------- PV rules --

std::vector<lint::Diagnostic> run_prove_rules(const netlist::Module& m,
                                              const sta::ProveSummary& summary) {
  lint::Linter linter;
  linter.add_rules(lint::prove_rules());
  lint::LintSubject subject;
  subject.module = &m;
  subject.prove = &summary;
  return linter.run(subject);
}

sta::ProveSummary base_summary() {
  sta::ProveSummary s;
  s.fresh_cp_ps = 100.0;
  s.aged_cp_ps = stress::RealInterval{110.0, 130.0};
  s.blame = {{"u7", "AND2_X1", "A", 12.0, 3.0}, {"u2", "INV_X1", "A", 5.0, 0.0}};
  return s;
}

TEST(ProveRules, CertifiedRunIsClean) {
  const liberty::Library fresh =
      liberty::parse_library_file(RW_REPO_DIR "/examples/fixtures/mini.lib");
  const netlist::Module m = fixture_module(fresh);
  sta::ProveSummary s = base_summary();
  s.guardband_ps = 30.0;  // exactly the proven requirement
  s.width_budget_ps = 25.0;
  EXPECT_TRUE(run_prove_rules(m, s).empty());
}

TEST(ProveRules, Pv001RefutesAGuardbandBelowTheProvenBound) {
  const liberty::Library fresh =
      liberty::parse_library_file(RW_REPO_DIR "/examples/fixtures/mini.lib");
  const netlist::Module m = fixture_module(fresh);
  sta::ProveSummary s = base_summary();
  s.guardband_ps = 20.0;  // proven requirement is 30
  const auto diags = run_prove_rules(m, s);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule_id, lint::rules::kGuardbandUnsound);
  EXPECT_EQ(diags[0].severity, lint::Severity::kError);
  EXPECT_NE(diags[0].message.find("30.0000"), std::string::npos) << diags[0].message;
}

TEST(ProveRules, Pv002RanksBlameWhenTheIntervalExceedsTheBudget) {
  const liberty::Library fresh =
      liberty::parse_library_file(RW_REPO_DIR "/examples/fixtures/mini.lib");
  const netlist::Module m = fixture_module(fresh);
  sta::ProveSummary s = base_summary();
  s.width_budget_ps = 10.0;  // width is 20
  const auto diags = run_prove_rules(m, s);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule_id, lint::rules::kWideProofInterval);
  EXPECT_EQ(diags[0].severity, lint::Severity::kWarning);
  EXPECT_NE(diags[0].message.find("u7/A"), std::string::npos) << diags[0].message;
  EXPECT_NE(diags[0].message.find("interp 3.00"), std::string::npos) << diags[0].message;
}

TEST(ProveRules, Pv003SupersedesEverythingOnAVacuousProof) {
  const liberty::Library fresh =
      liberty::parse_library_file(RW_REPO_DIR "/examples/fixtures/mini.lib");
  const netlist::Module m = fixture_module(fresh);
  sta::ProveSummary s = base_summary();
  s.vacuous = true;
  s.vacuous_instances = {"u1", "u2", "u3", "u4", "u5", "u6", "u7"};
  s.guardband_ps = 0.0;      // would trip PV001...
  s.width_budget_ps = 1.0;   // ...and PV002, but PV003 invalidates both
  const auto diags = run_prove_rules(m, s);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule_id, lint::rules::kVacuousProof);
  EXPECT_EQ(diags[0].severity, lint::Severity::kError);
  EXPECT_NE(diags[0].message.find("u5, +2 more"), std::string::npos) << diags[0].message;
}

// -------------------------------------------------------------- soundness --

/// The acceptance property: on every paper benchmark circuit, the aged
/// critical-path delay of every simulated workload lies inside the proven
/// interval — under the default [0, 1] input model AND a narrowed one — and
/// below the proven upper bound the guardband would be sized from.
TEST(ProveSoundness, SimulatedAgedDelayInsideProvenIntervalOnEveryBenchmark) {
  constexpr double kYears = 10.0;
  constexpr int kCycles = 300;
  constexpr double kEps = 1e-6;
  synth::SynthesisOptions opt;
  opt.multi_start = false;

  stress::AnalyzeOptions narrow;
  narrow.default_input = stress::Interval{0.1, 0.9};

  for (const auto& bc : circuits::benchmark_suite()) {
    const netlist::Module m = synth::synthesize(bc.build(), lib(), bc.name, opt).module;

    const auto proven = flow::proven_guardband(m, factory(), kYears);
    ASSERT_FALSE(proven.summary.vacuous) << bc.name;
    EXPECT_TRUE(proven.certified) << bc.name;
    EXPECT_GT(proven.candidate_corners, 0u) << bc.name;
    const stress::RealInterval iv = proven.summary.aged_cp_ps;
    EXPECT_GE(iv.hi, proven.summary.fresh_cp_ps) << bc.name;

    // Narrowing the input model can only tighten the proven interval.
    const auto proven_n = flow::proven_guardband(m, factory(), kYears, -1.0, narrow);
    ASSERT_FALSE(proven_n.summary.vacuous) << bc.name;
    // The flow takes its bounds from the pre-flight's analysis; they are
    // exactly what a stand-alone analysis proves.
    for (const auto& [result, options] :
         {std::pair{&proven, stress::AnalyzeOptions{}}, std::pair{&proven_n, narrow}}) {
      const stress::StressReport expected = stress::analyze(m, lib(), options);
      EXPECT_EQ(result->stress.net, expected.net) << bc.name;
      EXPECT_EQ(result->stress.net_widened, expected.net_widened) << bc.name;
      EXPECT_EQ(result->stress.iterations, expected.iterations) << bc.name;
      ASSERT_EQ(result->stress.instances.size(), expected.instances.size()) << bc.name;
      for (std::size_t i = 0; i < expected.instances.size(); ++i) {
        EXPECT_EQ(result->stress.instances[i].lambda_n, expected.instances[i].lambda_n);
        EXPECT_EQ(result->stress.instances[i].lambda_p, expected.instances[i].lambda_p);
      }
    }
    const stress::RealInterval nv = proven_n.summary.aged_cp_ps;
    EXPECT_GE(nv.lo, iv.lo - kEps) << bc.name;
    EXPECT_LE(nv.hi, iv.hi + kEps) << bc.name;

    for (unsigned seed = 1; seed <= 3; ++seed) {
      util::Rng rng(seed);
      const flow::Stimulus stimulus = [&](logicsim::CycleSimulator& sim, int) {
        for (netlist::NetId pi : m.inputs()) {
          if (pi != m.clock()) sim.set_input(pi, rng.chance(0.5));
        }
      };
      const auto dyn = flow::dynamic_workload_guardband(m, factory(), stimulus, kCycles, kYears);
      // Inside the default-model interval...
      EXPECT_GE(dyn.report.aged_cp_ps, iv.lo - kEps) << bc.name << " seed " << seed;
      EXPECT_LE(dyn.report.aged_cp_ps, iv.hi + kEps) << bc.name << " seed " << seed;
      // ...and inside the narrowed one (duty ~0.5 workloads are admitted).
      EXPECT_GE(dyn.report.aged_cp_ps, nv.lo - kEps) << bc.name << " seed " << seed;
      EXPECT_LE(dyn.report.aged_cp_ps, nv.hi + kEps) << bc.name << " seed " << seed;
      // The proven upper bound dominates every measured dynamic guardband.
      EXPECT_LE(dyn.report.guardband_ps(),
                iv.hi - proven.summary.fresh_cp_ps + kEps)
          << bc.name << " seed " << seed;
    }
  }
}

// ------------------------------------------------------------------- CLI ----

std::string run_cli(const std::string& args, int& exit_code) {
  // Per process: the `cli`-labelled ctest entry runs these tests alongside
  // the full binary.
  const std::string out_path = std::string(::testing::TempDir()) + "rwprove_out." +
                               std::to_string(static_cast<long>(::getpid())) + ".txt";
  const std::string cmd = std::string(RWPROVE_BIN) + " " + args + " > " + out_path + " 2>&1";
  const int status = std::system(cmd.c_str());
  exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream in(out_path);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::remove(out_path.c_str());
  return ss.str();
}

TEST(RwproveCli, VacuousProofIsRefusedWithPv003) {
  int code = -1;
  const std::string out = run_cli("--format json --fresh " RW_REPO_DIR
                                  "/examples/fixtures/mini.lib --lib " RW_REPO_DIR
                                  "/examples/fixtures/merged.lib " RW_REPO_DIR
                                  "/examples/fixtures/clean.v",
                                  code);
  EXPECT_EQ(code, 2) << out;
  EXPECT_NE(out.find("\"PV003\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"vacuous\":true"), std::string::npos) << out;
}

TEST(RwproveCli, GuardbandCertificationGatesTheExitCode) {
  const std::string fixture =
      "--fresh " RW_REPO_DIR "/examples/fixtures/mini.lib --lib " RW_REPO_DIR
      "/examples/fixtures/proven.lib " RW_REPO_DIR "/examples/fixtures/clean.v";
  int code = -1;
  // Far above the proven requirement: certified.
  std::string out = run_cli("--guardband 1000 " + fixture, code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("CERTIFIED"), std::string::npos) << out;
  // Below it: refuted via PV001.
  out = run_cli("--guardband 1 " + fixture, code);
  EXPECT_EQ(code, 2) << out;
  EXPECT_NE(out.find("PV001"), std::string::npos) << out;
}

TEST(RwproveCli, UsageErrorsExitSixtyFour) {
  int code = -1;
  run_cli("--lib x.lib y.v", code);  // --fresh is required
  EXPECT_EQ(code, 64);
  run_cli("--step 0 --fresh x.lib --lib x.lib y.v", code);
  EXPECT_EQ(code, 64);
  run_cli("--guardband -3 --fresh x.lib --lib x.lib y.v", code);
  EXPECT_EQ(code, 64);
  const std::string fixture = "--fresh " RW_REPO_DIR "/examples/fixtures/mini.lib "
                              "--lib " RW_REPO_DIR "/examples/fixtures/proven.lib " RW_REPO_DIR
                              "/examples/fixtures/clean.v";
  // Every numeric flag reads its whole value: trailing junk or a comma
  // decimal is a usage error before any work, not a silently used prefix.
  // The analysis, its lint and interval STA are serial: --threads is an
  // unknown flag.
  for (const char* flag : {"--clock 0.5x", "--clock 0,5", "--iterations 3x", "--iterations 3,5",
                          "--step 0.1x", "--step 0,1", "--guardband 12x", "--guardband 12,5",
                          "--budget 3x", "--budget 3,5", "--threads 4"}) {
    const std::string out = run_cli(std::string(flag) + " " + fixture, code);
    EXPECT_EQ(code, 64) << flag << ": " << out;
    EXPECT_EQ(out.find("module "), std::string::npos) << flag << ": " << out;
  }
}

TEST(RwproveCli, TrailingJunkInAnIntervalIsAUsageError) {
  int code = -1;
  const std::string out = run_cli("--default 0:1x --fresh " RW_REPO_DIR
                                  "/examples/fixtures/mini.lib --lib " RW_REPO_DIR
                                  "/examples/fixtures/proven.lib " RW_REPO_DIR
                                  "/examples/fixtures/clean.v",
                                  code);
  EXPECT_EQ(code, 64) << out;
}

}  // namespace
}  // namespace rw
