#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "charlib/factory.hpp"
#include "charlib/opc.hpp"
#include "liberty/library.hpp"
#include "liberty/parser.hpp"
#include "liberty/writer.hpp"
#include "lint/baseline.hpp"
#include "lint/diagnostic.hpp"
#include "lint/linter.hpp"
#include "flow/guardband_flow.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "util/interp.hpp"
#include "util/proc_lease.hpp"
#include "util/thread_pool.hpp"

namespace rw::lint {
namespace {

// ---------------------------------------------------------------------------
// In-code fixtures: a tiny well-formed library and ways to break it.

util::Table2D table(std::vector<double> values) {
  return util::Table2D(util::Axis({5.0, 100.0}), util::Axis({0.5, 4.0}), std::move(values));
}

liberty::TimingArc arc(const std::string& pin, double base) {
  liberty::TimingArc a;
  a.related_pin = pin;
  a.sense = liberty::TimingSense::kNegativeUnate;
  a.rise.delay_ps = table({base, base + 10, base + 5, base + 15});
  a.rise.out_slew_ps = table({base - 2, base + 8, base + 3, base + 13});
  a.fall.delay_ps = table({base - 1, base + 9, base + 4, base + 14});
  a.fall.out_slew_ps = table({base - 3, base + 7, base + 2, base + 12});
  return a;
}

liberty::Cell comb_cell(const std::string& name, const std::vector<std::string>& inputs,
                        double base_delay) {
  liberty::Cell cell;
  cell.name = name;
  cell.family = name.substr(0, name.find('_'));
  for (const auto& in : inputs) cell.pins.push_back(liberty::Pin{in, true, false, 1.5});
  cell.pins.push_back(liberty::Pin{"Z", false, false, 0.0});
  cell.output_pin = "Z";
  cell.truth = 1;  // irrelevant for lint
  for (const auto& in : inputs) cell.arcs.push_back(arc(in, base_delay));
  return cell;
}

liberty::Library small_lib() {
  liberty::Library lib("testlib");
  lib.add_cell(comb_cell("INV_X1", {"A"}, 10.0));
  lib.add_cell(comb_cell("NAND2_X1", {"A", "B"}, 14.0));
  return lib;
}

/// Runs `linter` over (module, library) and returns the rule ids seen.
std::multiset<std::string> rule_ids(const std::vector<Diagnostic>& diags) {
  std::multiset<std::string> ids;
  for (const auto& d : diags) ids.insert(d.rule_id);
  return ids;
}

std::vector<Diagnostic> lint_netlist(const netlist::Module& m, const liberty::Library& lib) {
  LintSubject subject;
  subject.module = &m;
  subject.library = &lib;
  return Linter::netlist_linter().run(subject);
}

std::vector<Diagnostic> lint_library(const liberty::Library& lib,
                                     const liberty::Library* fresh = nullptr,
                                     const charlib::OpcGrid* grid = nullptr) {
  LintSubject subject;
  subject.library = &lib;
  subject.fresh = fresh;
  subject.expected_grid = grid;
  return Linter::library_linter().run(subject);
}

bool has_rule(const std::vector<Diagnostic>& diags, const std::string& id, Severity sev) {
  for (const auto& d : diags) {
    if (d.rule_id == id && d.severity == sev) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Netlist rules: one deliberately broken fixture per rule.

TEST(NetlistRules, CleanDesignHasNoFindings) {
  const liberty::Library lib = small_lib();
  netlist::Module m("clean");
  const auto a = m.add_net("a");
  const auto b = m.add_net("b");
  m.mark_input(a);
  m.mark_input(b);
  const auto n1 = m.add_net("n1");
  const auto y = m.add_net("y");
  m.add_instance("u1", "NAND2_X1", {a, b}, n1);
  m.add_instance("u2", "INV_X1", {n1}, y);
  m.mark_output(y);
  EXPECT_TRUE(lint_netlist(m, lib).empty());
}

TEST(NetlistRules, CombinationalCycle) {
  const liberty::Library lib = small_lib();
  netlist::Module m("cyc");
  const auto a = m.add_net("a");
  m.mark_input(a);
  const auto n1 = m.add_net("n1");
  const auto n2 = m.add_net("n2");
  m.add_instance("g1", "NAND2_X1", {n2, a}, n1);
  m.add_instance("g2", "INV_X1", {n1}, n2);
  m.mark_output(n2);
  const auto diags = lint_netlist(m, lib);
  EXPECT_TRUE(has_rule(diags, rules::kCombCycle, Severity::kError));
  // The cycle is reported exactly once and names the loop path.
  EXPECT_EQ(rule_ids(diags).count(rules::kCombCycle), 1u);
  for (const auto& d : diags) {
    if (d.rule_id == rules::kCombCycle) {
      EXPECT_NE(d.message.find("g1"), std::string::npos);
    }
  }
}

TEST(NetlistRules, UndrivenNet) {
  const liberty::Library lib = small_lib();
  netlist::Module m("undrv");
  const auto x = m.add_net("x");  // never driven, not an input
  const auto y = m.add_net("y");
  m.add_instance("u1", "INV_X1", {x}, y);
  m.mark_output(y);
  EXPECT_TRUE(has_rule(lint_netlist(m, lib), rules::kUndrivenNet, Severity::kError));
}

TEST(NetlistRules, MultiDrivenNet) {
  const liberty::Library lib = small_lib();
  netlist::Module m("multi");
  const auto a = m.add_net("a");
  m.mark_input(a);
  const auto y = m.add_net("y");
  m.add_instance("u1", "INV_X1", {a}, y);
  m.add_instance_lenient("u2", "INV_X1", {a}, y);  // second driver
  m.mark_output(y);
  const auto diags = lint_netlist(m, lib);
  EXPECT_TRUE(has_rule(diags, rules::kMultiDrivenNet, Severity::kError));
}

TEST(NetlistRules, DanglingOutputIsWarning) {
  const liberty::Library lib = small_lib();
  netlist::Module m("dangle");
  const auto a = m.add_net("a");
  m.mark_input(a);
  const auto y = m.add_net("y");
  const auto dead = m.add_net("dead");
  m.add_instance("u1", "INV_X1", {a}, y);
  m.add_instance("u2", "INV_X1", {a}, dead);  // feeds nothing, not a PO
  m.mark_output(y);
  EXPECT_TRUE(has_rule(lint_netlist(m, lib), rules::kDanglingOutput, Severity::kWarning));
}

TEST(NetlistRules, UnknownCell) {
  const liberty::Library lib = small_lib();
  netlist::Module m("unk");
  const auto a = m.add_net("a");
  m.mark_input(a);
  const auto y = m.add_net("y");
  m.add_instance("u1", "MYSTERY_X9", {a}, y);
  m.mark_output(y);
  EXPECT_TRUE(has_rule(lint_netlist(m, lib), rules::kUnknownCell, Severity::kError));
}

TEST(NetlistRules, PortArityMismatch) {
  const liberty::Library lib = small_lib();
  netlist::Module m("arity");
  const auto a = m.add_net("a");
  m.mark_input(a);
  const auto y = m.add_net("y");
  m.add_instance("u1", "NAND2_X1", {a}, y);  // NAND2 wants 2 inputs
  m.mark_output(y);
  EXPECT_TRUE(has_rule(lint_netlist(m, lib), rules::kPortArity, Severity::kError));
}

// ---------------------------------------------------------------------------
// Module::check / validate collect every violation.

TEST(ModuleCheck, CollectsAllViolationsAndValidateAggregates) {
  netlist::Module m("manybad");
  const auto a = m.add_net("a");
  m.mark_input(a);
  const auto x = m.add_net("x");  // undriven, used
  const auto y = m.add_net("y");
  m.add_instance("u1", "INV_X1", {x}, y);
  m.add_instance_lenient("u2", "INV_X1", {a}, y);      // multi-driver
  m.add_instance_lenient("u3", "INV_X1", {a}, netlist::kNoNet);  // no output
  m.mark_output(y);
  const auto diags = m.check();
  const auto ids = rule_ids(diags);
  EXPECT_EQ(ids.count(rules::kUndrivenNet), 1u);
  EXPECT_EQ(ids.count(rules::kMultiDrivenNet), 1u);
  EXPECT_EQ(ids.count(rules::kPortArity), 1u);
  EXPECT_EQ(diags.size(), 3u);
  try {
    m.validate();
    FAIL() << "validate() must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("3 violation(s)"), std::string::npos);
    EXPECT_NE(what.find(rules::kUndrivenNet), std::string::npos);
    EXPECT_NE(what.find(rules::kMultiDrivenNet), std::string::npos);
    EXPECT_NE(what.find(rules::kPortArity), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Library rules.

TEST(LibraryRules, CleanLibraryHasNoFindings) {
  EXPECT_TRUE(lint_library(small_lib()).empty());
}

TEST(LibraryRules, NegativeNldmValue) {
  // A negative slew (or NaN anywhere) is corrupt data: error.
  liberty::Library bad_slew("negslew");
  liberty::Cell cell = comb_cell("INV_X1", {"A"}, 10.0);
  cell.arcs[0].rise.out_slew_ps.at(0, 0) = -4.0;
  bad_slew.add_cell(cell);
  EXPECT_TRUE(has_rule(lint_library(bad_slew), rules::kNegativeNldm, Severity::kError));

  liberty::Library nan_lib("nandelay");
  cell = comb_cell("INV_X1", {"A"}, 10.0);
  cell.arcs[0].fall.delay_ps.at(0, 0) = std::nan("");
  nan_lib.add_cell(cell);
  EXPECT_TRUE(has_rule(lint_library(nan_lib), rules::kNegativeNldm, Severity::kError));

  // A negative *delay* is a legitimate artifact of the 50%-to-50% convention
  // at extreme (slow slew, tiny load) corners: warning only.
  liberty::Library neg_delay("negdelay");
  cell = comb_cell("INV_X1", {"A"}, 10.0);
  cell.arcs[0].rise.delay_ps.at(0, 0) = -4.0;
  neg_delay.add_cell(cell);
  const auto diags = lint_library(neg_delay);
  EXPECT_TRUE(has_rule(diags, rules::kNegativeNldm, Severity::kWarning));
  EXPECT_FALSE(has_rule(diags, rules::kNegativeNldm, Severity::kError));
}

TEST(LibraryRules, NonMonotoneTable) {
  liberty::Library lib("mono");
  liberty::Cell cell = comb_cell("INV_X1", {"A"}, 10.0);
  // Delay *drops* from load 0.5 fF to 4 fF at the first slew point.
  cell.arcs[0].rise.delay_ps.at(0, 0) = 30.0;
  lib.add_cell(cell);
  EXPECT_TRUE(has_rule(lint_library(lib), rules::kNonMonotoneNldm, Severity::kWarning));
}

TEST(LibraryRules, GridMismatchAgainstExpectedGrid) {
  const liberty::Library lib = small_lib();  // 2x2 tables
  const charlib::OpcGrid grid = charlib::OpcGrid::coarse();  // expects 3x3
  EXPECT_TRUE(has_rule(lint_library(lib, nullptr, &grid), rules::kGridMismatch,
                       Severity::kWarning));
  // Without an expected grid the (internally consistent) library is clean.
  EXPECT_TRUE(lint_library(lib).empty());
}

TEST(LibraryRules, MissingTimingArc) {
  liberty::Library lib("noarc");
  liberty::Cell cell = comb_cell("NAND2_X1", {"A", "B"}, 14.0);
  cell.arcs.pop_back();  // drop the B arc
  lib.add_cell(cell);
  EXPECT_TRUE(has_rule(lint_library(lib), rules::kMissingArc, Severity::kError));
}

TEST(LibraryRules, AgedFasterThanFreshInversion) {
  const liberty::Library fresh = small_lib();
  liberty::Library aged("aged");
  liberty::Cell cell = comb_cell("INV_X1", {"A"}, 10.0);
  cell.arcs[0].rise.delay_ps.transform([](double v) { return v * 0.5; });  // "faster" when aged
  aged.add_cell(cell);
  EXPECT_TRUE(
      has_rule(lint_library(aged, &fresh), rules::kAgedFasterThanFresh, Severity::kWarning));
  // Against itself (same pointer) the rule stays quiet.
  EXPECT_TRUE(lint_library(fresh, &fresh).empty());
}

TEST(LibraryRules, FallbackMarkersAreWarned) {
  liberty::Library lib("fallback");
  liberty::Cell cell = comb_cell("NAND2_X1", {"A", "B"}, 14.0);
  cell.fallbacks.push_back(liberty::FallbackPoint{"A", true, 1, 0});
  cell.fallbacks.push_back(liberty::FallbackPoint{"B", false, 0, 1});
  lib.add_cell(cell);
  lib.add_cell(comb_cell("INV_X1", {"A"}, 10.0));  // healthy; must stay quiet
  const auto diags = lint_library(lib);
  EXPECT_TRUE(has_rule(diags, rules::kFallbackPoint, Severity::kWarning));
  ASSERT_EQ(rule_ids(diags).count(rules::kFallbackPoint), 1u);  // one finding per cell
  for (const auto& d : diags) {
    if (d.rule_id != rules::kFallbackPoint) continue;
    EXPECT_NE(d.location.find("NAND2_X1"), std::string::npos);
    EXPECT_NE(d.message.find("A:rise:(1,0)"), std::string::npos);
    EXPECT_NE(d.message.find("2 OPC point(s)"), std::string::npos);
  }
}

TEST(LibraryRules, FallbackMarkersSurviveLibertyRoundTrip) {
  liberty::Library lib("roundtrip");
  liberty::Cell cell = comb_cell("NAND2_X1", {"A", "B"}, 14.0);
  cell.fallbacks.push_back(liberty::FallbackPoint{"A", true, 1, 0});
  lib.add_cell(cell);
  const liberty::Library reparsed = liberty::parse_library(liberty::write_library(lib));
  const liberty::Cell* c = reparsed.find("NAND2_X1");
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(c->fallbacks.size(), 1u);
  EXPECT_EQ(c->fallbacks[0], (liberty::FallbackPoint{"A", true, 1, 0}));
  EXPECT_TRUE(has_rule(lint_library(reparsed), rules::kFallbackPoint, Severity::kWarning));
}

TEST(LibraryRules, InterpBoundOverToleranceIsWarned) {
  // LB007 fires only when the certified rw_interp bound exceeds the flow
  // tolerance ($RW_CHAR_INTERP_TOL_PS, default 2.0 ps).
  liberty::Library lib("interp");
  liberty::Cell loose = comb_cell("NAND2_X1", {"A", "B"}, 14.0);
  loose.interp = liberty::InterpMarker{0.2, 0.4, 0.0, 0.2, 5.5};  // > 2.0 ps
  lib.add_cell(loose);
  liberty::Cell tight = comb_cell("INV_X1", {"A"}, 10.0);
  tight.interp = liberty::InterpMarker{0.0, 0.2, 0.0, 0.2, 0.3};  // within tolerance
  lib.add_cell(tight);

  const auto diags = lint_library(lib);
  EXPECT_TRUE(has_rule(diags, rules::kInterpBound, Severity::kWarning));
  ASSERT_EQ(rule_ids(diags).count(rules::kInterpBound), 1u);  // only the loose cell
  for (const auto& d : diags) {
    if (d.rule_id != rules::kInterpBound) continue;
    EXPECT_NE(d.location.find("NAND2_X1"), std::string::npos);
    EXPECT_NE(d.message.find("5.500 ps"), std::string::npos);
    EXPECT_NE(d.fix_hint.find("RW_CHAR_INTERP_TOL_PS"), std::string::npos);
  }
}

TEST(LibraryRules, InterpMarkerSurvivesLibertyRoundTripIntoLint) {
  liberty::Library lib("roundtrip");
  liberty::Cell cell = comb_cell("NAND2_X1", {"A", "B"}, 14.0);
  cell.interp = liberty::InterpMarker{0.2, 0.4, 0.2, 0.4, 7.25};
  lib.add_cell(cell);
  const liberty::Library reparsed = liberty::parse_library(liberty::write_library(lib));
  const liberty::Cell* c = reparsed.find("NAND2_X1");
  ASSERT_NE(c, nullptr);
  ASSERT_TRUE(c->interp.has_value());
  EXPECT_NEAR(c->interp->bound_ps, 7.25, 1e-6);
  EXPECT_TRUE(has_rule(lint_library(reparsed), rules::kInterpBound, Severity::kWarning));
}

// ---------------------------------------------------------------------------
// Annotation rules.

TEST(AnnotationRules, DutyOutOfRange) {
  const liberty::Library lib = small_lib();
  netlist::Module m("ann");
  const auto a = m.add_net("a");
  m.mark_input(a);
  const auto y = m.add_net("y");
  m.add_instance("u1", "INV_X1_1.20_0.50", {a}, y);
  m.mark_output(y);
  const auto diags = lint_netlist(m, lib);
  EXPECT_TRUE(has_rule(diags, rules::kDutyOutOfRange, Severity::kError));
  // Out-of-range corners are not additionally reported as missing corners
  // or unknown cells.
  EXPECT_EQ(rule_ids(diags).count(rules::kMissingCorner), 0u);
  EXPECT_EQ(rule_ids(diags).count(rules::kUnknownCell), 0u);
}

TEST(AnnotationRules, MissingCorner) {
  liberty::Library lib("merged");
  lib.add_cell(comb_cell("INV_X1_0.40_0.60", {"A"}, 12.0));
  netlist::Module m("ann");
  const auto a = m.add_net("a");
  m.mark_input(a);
  const auto y = m.add_net("y");
  m.add_instance("u1", "INV_X1_0.50_0.50", {a}, y);  // corner never merged
  m.mark_output(y);
  EXPECT_TRUE(has_rule(lint_netlist(m, lib), rules::kMissingCorner, Severity::kError));
}

TEST(AnnotationRules, UnannotatedInstanceAmidAgedCorners) {
  liberty::Library lib("mixed");
  lib.add_cell(comb_cell("INV_X1", {"A"}, 10.0));
  lib.add_cell(comb_cell("INV_X1_1.00_1.00", {"A"}, 14.0));
  netlist::Module m("ann");
  const auto a = m.add_net("a");
  m.mark_input(a);
  const auto y = m.add_net("y");
  m.add_instance("u1", "INV_X1", {a}, y);  // silently times as fresh
  m.mark_output(y);
  EXPECT_TRUE(has_rule(lint_netlist(m, lib), rules::kUnannotated, Severity::kWarning));
}

// ---------------------------------------------------------------------------
// Diagnostics plumbing: formatting, JSON golden, determinism.

TEST(Diagnostics, JsonGolden) {
  const std::vector<Diagnostic> diags = {
      {"NL001", Severity::kError, "top:inst g1", "combinational cycle: g1 -> g2 -> g1",
       "break the loop"},
      {"NL004", Severity::kWarning, "top:inst u9", "output net n\"9 feeds nothing", ""},
  };
  const std::string expected =
      "{\"diagnostics\":["
      "{\"rule\":\"NL001\",\"severity\":\"error\",\"location\":\"top:inst g1\","
      "\"message\":\"combinational cycle: g1 -> g2 -> g1\",\"fix_hint\":\"break the loop\"},"
      "{\"rule\":\"NL004\",\"severity\":\"warning\",\"location\":\"top:inst u9\","
      "\"message\":\"output net n\\\"9 feeds nothing\",\"fix_hint\":\"\"}"
      "],\"counts\":{\"error\":1,\"warning\":1,\"info\":0},\"worst\":\"error\"}";
  EXPECT_EQ(to_json(diags), expected);
  EXPECT_EQ(to_json({}),
            "{\"diagnostics\":[],\"counts\":{\"error\":0,\"warning\":0,\"info\":0},"
            "\"worst\":\"info\"}");
}

TEST(Diagnostics, FormatAndSeverityHelpers) {
  const Diagnostic d{"LB001", Severity::kError, "lib:INV_X1", "bad value", "re-characterize"};
  EXPECT_EQ(d.format(), "error[LB001] lib:INV_X1: bad value (fix: re-characterize)");
  const std::vector<Diagnostic> diags = {d, {"NL004", Severity::kWarning, "", "w", ""}};
  EXPECT_EQ(worst_severity(diags), Severity::kError);
  EXPECT_EQ(count(diags, Severity::kWarning), 1u);
  EXPECT_EQ(worst_severity({}), Severity::kInfo);
}

TEST(Linter, ParallelAndSerialRunsAgree) {
  const liberty::Library lib = small_lib();
  netlist::Module m("cyc");
  const auto a = m.add_net("a");
  m.mark_input(a);
  const auto n1 = m.add_net("n1");
  const auto n2 = m.add_net("n2");
  m.add_instance("g1", "NAND2_X1", {n2, a}, n1);
  m.add_instance_lenient("g2", "INV_X1", {n1}, n2);
  m.add_instance_lenient("g3", "INV_X1", {n1}, n2);  // multi-driver on top of the cycle
  m.mark_output(n2);
  LintSubject subject;
  subject.module = &m;
  subject.library = &lib;
  const Linter linter = Linter::all_rules();
  util::set_shared_thread_count(4);
  const auto par = linter.run(subject);
  util::set_shared_thread_count(1);
  const auto ser = linter.run(subject);
  util::set_shared_thread_count(0);
  ASSERT_EQ(par.size(), ser.size());
  for (std::size_t i = 0; i < par.size(); ++i) {
    EXPECT_EQ(par[i].rule_id, ser[i].rule_id);
    EXPECT_EQ(par[i].location, ser[i].location);
    EXPECT_EQ(par[i].message, ser[i].message);
  }
}

TEST(Linter, LintOrThrowCarriesDiagnostics) {
  const liberty::Library lib = small_lib();
  netlist::Module m("bad");
  const auto a = m.add_net("a");
  m.mark_input(a);
  const auto y = m.add_net("y");
  m.add_instance("u1", "MYSTERY_X9", {a}, y);
  m.mark_output(y);
  LintSubject subject;
  subject.module = &m;
  subject.library = &lib;
  try {
    lint_or_throw(Linter::netlist_linter(), subject);
    FAIL() << "expected LintError";
  } catch (const LintError& e) {
    ASSERT_EQ(e.diagnostics().size(), 1u);
    EXPECT_EQ(e.diagnostics()[0].rule_id, rules::kUnknownCell);
    EXPECT_NE(std::string(e.what()).find("MYSTERY_X9"), std::string::npos);
  }
  // Warnings alone do not throw at the default threshold.
  netlist::Module w("warn");
  const auto b = w.add_net("b");
  w.mark_input(b);
  const auto dead = w.add_net("dead");
  w.add_instance("u1", "INV_X1", {b}, dead);
  subject.module = &w;
  const auto diags = lint_or_throw(Linter::netlist_linter(), subject);
  EXPECT_EQ(worst_severity(diags), Severity::kWarning);
  EXPECT_THROW(lint_or_throw(Linter::netlist_linter(), subject, Severity::kWarning), LintError);
}

// ---------------------------------------------------------------------------
// AC rules: the switching-activity analysis behind rwactivity.

/// y = INV(a) with a declared input model rich enough to pin y's density.
netlist::Module inverter_module() {
  netlist::Module m("t");
  const auto a = m.add_net("a");
  m.mark_input(a);
  const auto y = m.add_net("y");
  m.add_instance("u1", "INV_X1", {a}, y);
  m.mark_output(y);
  return m;
}

TEST(ActivityRules, MeasuredRateOutsideBoundsIsAc001ErrorWithGoldenJson) {
  const liberty::Library lib = small_lib();
  const netlist::Module m = inverter_module();
  stress::ActivityOptions options;
  options.probability.input_intervals["a"] = stress::Interval{0.5, 0.5};
  options.input_densities["a"] = stress::Interval{0.2, 0.2};  // y inherits [0.2, 0.2]
  ActivityMeasurement measured;
  measured.toggle_rates = {{"y", 0.9}};

  LintSubject subject;
  subject.module = &m;
  subject.library = &lib;
  subject.activity = &options;
  subject.measured_activity = &measured;
  Linter linter;
  linter.add_rules(activity_rules());
  const auto diags = linter.run(subject);
  const std::string expected =
      "{\"diagnostics\":["
      "{\"rule\":\"AC001\",\"severity\":\"error\",\"location\":\"t:net y\","
      "\"message\":\"measured toggle rate 0.900000 escapes the proven activity bound "
      "[0.2000, 0.2000]\",\"fix_hint\":\"the measurement contradicts a "
      "workload-independent bound; check the warm-up window, the declared input model, "
      "and the sampling convention\"}"
      "],\"counts\":{\"error\":1,\"warning\":0,\"info\":0},\"worst\":\"error\"}";
  EXPECT_EQ(to_json(diags), expected);

  // A rate inside the proven interval (up to slack) stays silent.
  measured.toggle_rates = {{"y", 0.2}, {"absent_net", 5.0}};
  EXPECT_TRUE(linter.run(subject).empty());
}

TEST(ActivityRules, QuietNetsAndHotspotsAreReported) {
  const liberty::Library lib = small_lib();
  const netlist::Module m = inverter_module();

  // Declared-quiet input, free probability: y provably never toggles but is
  // not a proven constant — AC002, not SP002's territory.
  stress::ActivityOptions quiet;
  quiet.input_densities["a"] = stress::Interval{0.0, 0.0};
  LintSubject subject;
  subject.module = &m;
  subject.library = &lib;
  subject.activity = &quiet;
  Linter linter;
  linter.add_rules(activity_rules());
  auto diags = linter.run(subject);
  EXPECT_TRUE(has_rule(diags, rules::kProvenQuiet, Severity::kInfo));
  EXPECT_FALSE(has_rule(diags, rules::kActivityHotspot, Severity::kWarning));

  // Input toggling every cycle: y's lower bound reaches the default hotspot
  // threshold, with the blame pointing at the driving pin.
  stress::ActivityOptions hot;
  hot.probability.input_intervals["a"] = stress::Interval{0.5, 0.5};
  hot.input_densities["a"] = stress::Interval{1.0, 1.0};
  subject.activity = &hot;
  diags = linter.run(subject);
  ASSERT_TRUE(has_rule(diags, rules::kActivityHotspot, Severity::kWarning));
  bool blamed = false;
  for (const auto& d : diags) {
    if (d.rule_id == rules::kActivityHotspot &&
        d.message.find("pin net a") != std::string::npos) {
      blamed = true;
    }
  }
  EXPECT_TRUE(blamed);
  // A higher threshold silences it.
  subject.activity_hotspot_threshold = 1.5;
  EXPECT_FALSE(has_rule(linter.run(subject), rules::kActivityHotspot, Severity::kWarning));
}

TEST(ActivityRules, LintOrThrowRefusesContradictedMeasurements) {
  const liberty::Library lib = small_lib();
  const netlist::Module m = inverter_module();
  stress::ActivityOptions options;
  options.probability.input_intervals["a"] = stress::Interval{0.5, 0.5};
  options.input_densities["a"] = stress::Interval{0.0, 0.1};
  ActivityMeasurement measured;
  measured.toggle_rates = {{"y", 0.75}};
  measured.slack = 1e-9;
  LintSubject subject;
  subject.module = &m;
  subject.library = &lib;
  subject.activity = &options;
  subject.measured_activity = &measured;
  try {
    lint_or_throw(Linter::netlist_linter(), subject);
    FAIL() << "expected LintError";
  } catch (const LintError& e) {
    EXPECT_EQ(rule_ids(e.diagnostics()).count(std::string(rules::kToggleOutsideBounds)), 1u);
    EXPECT_NE(std::string(e.what()).find("AC001"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// SP and AC rules share one analysis per lint run.

TEST(SharedAnalysis, DifferingInputModelsMatchSeparateSpAndAcRuns) {
  const liberty::Library lib = small_lib();
  netlist::Module m("t");
  const auto a = m.add_net("a");
  const auto b = m.add_net("b");
  m.mark_input(a);
  m.mark_input(b);
  const auto n1 = m.add_net("n1");
  const auto y = m.add_net("y");
  m.add_instance("u1", "NAND2_X1", {a, b}, n1);
  m.add_instance("u2", "INV_X1", {n1}, y);
  m.mark_output(y);

  // SP: `a` stuck at 1 freezes the cone (SP002). AC: free probabilities but
  // quiet inputs, so the cone never toggles without being constant (AC002,
  // which the SP model's constants would have suppressed).
  stress::AnalyzeOptions sp_model;
  sp_model.input_intervals["a"] = stress::Interval::point(1.0);
  stress::ActivityOptions ac_model;
  ac_model.probability.input_intervals["a"] = stress::Interval::point(0.5);
  ac_model.probability.input_intervals["b"] = stress::Interval::point(0.5);
  ac_model.input_densities["a"] = stress::Interval::point(0.0);
  ac_model.input_densities["b"] = stress::Interval::point(0.0);
  LintSubject subject;
  subject.module = &m;
  subject.library = &lib;
  subject.stress = &sp_model;
  subject.activity = &ac_model;

  Linter sp_only;
  sp_only.add_rules(stress_rules());
  Linter ac_only;
  ac_only.add_rules(activity_rules());
  std::vector<Diagnostic> expected = sp_only.run(subject);
  for (Diagnostic& d : ac_only.run(subject)) expected.push_back(std::move(d));
  ASSERT_TRUE(has_rule(expected, rules::kProvenConstant, Severity::kWarning));
  ASSERT_TRUE(has_rule(expected, rules::kProvenQuiet, Severity::kInfo));

  SubjectAnalysis analysis;
  subject.analysis = &analysis;
  std::vector<Diagnostic> shared;
  for (Diagnostic& d : Linter::netlist_linter().run(subject)) {
    if (d.rule_id.starts_with("SP") || d.rule_id.starts_with("AC")) shared.push_back(std::move(d));
  }
  EXPECT_EQ(to_json(shared), to_json(expected));

  // The caller-owned analysis kept both fixed points, each the stand-alone one.
  const auto sp = analysis.stress(subject);
  const auto ac = analysis.activity(subject);
  ASSERT_NE(sp, nullptr);
  ASSERT_NE(ac, nullptr);
  EXPECT_EQ(sp->net, stress::analyze(m, lib, sp_model).net);
  EXPECT_EQ(ac->probability.net, stress::analyze(m, lib, ac_model.probability).net);
  EXPECT_EQ(ac->density, stress::analyze_activity(m, lib, ac_model).density);
}

TEST(SharedAnalysis, AgreeingInputModelsShareOneFixedPoint) {
  const liberty::Library lib = small_lib();
  const netlist::Module m = inverter_module();
  stress::AnalyzeOptions model;
  model.input_intervals["a"] = stress::Interval{0.2, 0.4};
  LintSubject subject;
  subject.module = &m;
  subject.library = &lib;
  subject.stress = &model;
  SubjectAnalysis analysis;
  subject.analysis = &analysis;
  (void)Linter::netlist_linter().run(subject);
  const auto sp = analysis.stress(subject);
  const auto ac = analysis.activity(subject);
  ASSERT_NE(sp, nullptr);
  ASSERT_NE(ac, nullptr);
  EXPECT_EQ(ac->probability.net, sp->net);

  // Structurally broken subjects get no analysis; the NL rules own them.
  netlist::Module broken("bad");
  const auto x = broken.add_net("x");
  broken.mark_input(x);
  const auto z = broken.add_net("z");
  broken.add_instance("u1", "MYSTERY_X9", {x}, z);
  LintSubject bad;
  bad.module = &broken;
  bad.library = &lib;
  SubjectAnalysis refused;
  EXPECT_FALSE(refused.analyzable(bad));
  EXPECT_EQ(refused.stress(bad), nullptr);
  EXPECT_EQ(refused.activity(bad), nullptr);
}

// ---------------------------------------------------------------------------
// The flows refuse bad inputs with the same diagnostics rwlint reports.

TEST(FlowPreflight, GuardbandFlowRefusesBrokenNetlist) {
  charlib::LibraryFactory::Options opts;
  opts.characterize.grid = charlib::OpcGrid::coarse();
  opts.cell_subset = {"INV_X1", "NAND2_X1"};
  charlib::LibraryFactory factory(opts);

  // The same three defects as tests/fixtures/broken.v: a combinational
  // cycle, a 2x-driven net, and an out-of-range duty-cycle index.
  netlist::Module m("broken");
  const auto a = m.add_net("a");
  const auto b = m.add_net("b");
  m.mark_input(a);
  m.mark_input(b);
  const auto n1 = m.add_net("n1");
  const auto n2 = m.add_net("n2");
  const auto mm = m.add_net("m");
  const auto z = m.add_net("z");
  m.add_instance("u1", "NAND2_X1", {n2, a}, n1);
  m.add_instance("u2", "INV_X1", {n1}, n2);
  m.add_instance("u3", "NAND2_X1", {a, b}, mm);
  m.add_instance_lenient("u4", "INV_X1", {a}, mm);
  m.add_instance("u5", "INV_X1_1.20_0.50", {b}, z);
  m.mark_output(mm);
  m.mark_output(z);

  try {
    flow::static_guardband(m, factory, aging::AgingScenario::worst_case(10.0));
    FAIL() << "expected LintError";
  } catch (const LintError& e) {
    const auto ids = rule_ids(e.diagnostics());
    EXPECT_EQ(ids.count(rules::kCombCycle), 1u);
    EXPECT_EQ(ids.count(rules::kMultiDrivenNet), 1u);
    EXPECT_EQ(ids.count(rules::kDutyOutOfRange), 1u);
    EXPECT_EQ(e.diagnostics().size(), 3u) << format_report(e.diagnostics());
  }
}

// ---------------------------------------------------------------------------
// End-to-end CLI: rwlint over the shipped fixtures (acceptance criteria).

std::string run_cli(const std::string& args, int& exit_code) {
  // Per process: the `cli`-labelled ctest entry runs these tests alongside
  // the full binary.
  const std::string out_path = std::string(::testing::TempDir()) + "rwlint_out." +
                               std::to_string(static_cast<long>(::getpid())) + ".txt";
  const std::string cmd = std::string(RWLINT_BIN) + " " + args + " > " + out_path + " 2>&1";
  const int status = std::system(cmd.c_str());
  exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream in(out_path);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::remove(out_path.c_str());
  return ss.str();
}

std::multiset<std::string> json_rule_ids(const std::string& json) {
  std::multiset<std::string> ids;
  const std::string key = "\"rule\":\"";
  for (std::size_t pos = json.find(key); pos != std::string::npos;
       pos = json.find(key, pos + 1)) {
    const std::size_t start = pos + key.size();
    ids.insert(json.substr(start, json.find('"', start) - start));
  }
  return ids;
}

TEST(RwlintCli, BrokenFixtureReportsExactlyThreeRuleIdsAsJson) {
  int exit_code = 0;
  const std::string json =
      run_cli("--format json --lib " RW_REPO_DIR "/examples/fixtures/mini.lib " RW_REPO_DIR
              "/tests/fixtures/broken.v",
              exit_code);
  EXPECT_EQ(exit_code, 2) << json;
  const auto ids = json_rule_ids(json);
  EXPECT_EQ(ids.size(), 3u) << json;
  EXPECT_EQ(ids.count(rules::kCombCycle), 1u) << json;
  EXPECT_EQ(ids.count(rules::kMultiDrivenNet), 1u) << json;
  EXPECT_EQ(ids.count(rules::kDutyOutOfRange), 1u) << json;
  EXPECT_NE(json.find("\"worst\":\"error\""), std::string::npos);
}

TEST(RwlintCli, ExampleFixtureSuiteIsClean) {
  int exit_code = -1;
  std::string out = run_cli("--lib " RW_REPO_DIR "/examples/fixtures/mini.lib " RW_REPO_DIR
                            "/examples/fixtures/clean.v",
                            exit_code);
  EXPECT_EQ(exit_code, 0) << out;
  out = run_cli("--lib " RW_REPO_DIR "/examples/fixtures/merged.lib " RW_REPO_DIR
                "/examples/fixtures/annotated.v",
                exit_code);
  EXPECT_EQ(exit_code, 0) << out;
}

TEST(RwlintCli, UsageErrorsExit64) {
  int exit_code = -1;
  run_cli("--format yaml --lib x.lib", exit_code);
  EXPECT_EQ(exit_code, 64);
  run_cli("", exit_code);
  EXPECT_EQ(exit_code, 64);
  const std::string fixture = "--lib " RW_REPO_DIR "/examples/fixtures/mini.lib " RW_REPO_DIR
                              "/examples/fixtures/clean.v";
  // Every numeric flag reads its whole value: trailing junk or a comma
  // decimal is a usage error before any work, not a silently used prefix.
  for (const char* flag : {"--threads 4x", "--threads abc", "--threads 0", "--threads=4x"}) {
    const std::string out = run_cli(std::string(flag) + " " + fixture, exit_code);
    EXPECT_EQ(exit_code, 64) << flag << ": " << out;
    EXPECT_EQ(out.find("error(s)"), std::string::npos) << flag << ": " << out;
  }
}

TEST(RwlintCli, JunkLibraryNumbersAreIo001) {
  // A library number with trailing junk or no digits fails the read (IO001,
  // with its line) instead of linting clean as a prefix or as 0; a NaN table
  // entry still reads, so the library rules report it (LB001).
  std::ifstream in(RW_REPO_DIR "/examples/fixtures/mini.lib");
  std::ostringstream text;
  text << in.rdbuf();
  const std::string mini = text.str();
  const std::string bad = std::string(::testing::TempDir()) + "junk_numbers." +
                          std::to_string(static_cast<long>(::getpid())) + ".lib";
  const struct {
    const char* from;
    const char* to;
    const char* expect;
  } rows[] = {
      {"area : 0.5320;", "area : banana;", "IO001"},
      {"capacitance : 1.6000;", "capacitance : 1.6x;", "IO001"},
      {"\"10.0000, 24.0000\"", "\"nan, 24.0000\"", "LB001"},
  };
  for (const auto& row : rows) {
    std::string lib = mini;
    const std::size_t pos = lib.find(row.from);
    ASSERT_NE(pos, std::string::npos) << row.from;
    lib.replace(pos, std::string(row.from).size(), row.to);
    std::ofstream(bad) << lib;
    const auto line =
        1 + std::count(lib.begin(), lib.begin() + static_cast<std::ptrdiff_t>(pos), '\n');
    int exit_code = -1;
    const std::string out =
        run_cli("--lib " + bad + " " RW_REPO_DIR "/examples/fixtures/clean.v", exit_code);
    EXPECT_EQ(exit_code, 2) << row.to << ": " << out;
    EXPECT_NE(out.find(row.expect), std::string::npos) << row.to << ": " << out;
    if (std::string(row.expect) == "IO001") {
      EXPECT_NE(out.find("line " + std::to_string(line) + ":"), std::string::npos) << out;
    } else {
      EXPECT_EQ(out.find("IO001"), std::string::npos) << row.to << ": " << out;
    }
  }
  std::remove(bad.c_str());
}

// ---------------------------------------------------------------------------
// Rule-catalog completeness: the catalog, `--explain`, and the README rule
// table must stay in lockstep, and everything the fixtures emit is cataloged.

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(RuleCatalog, EveryEntryHasExplainTextAndExactlyOneReadmeRow) {
  const std::string readme = read_file(RW_REPO_DIR "/README.md");
  ASSERT_FALSE(readme.empty());
  ASSERT_FALSE(rule_catalog().empty());
  std::set<std::string> seen;
  for (const RuleInfo& info : rule_catalog()) {
    ASSERT_NE(info.id, nullptr);
    EXPECT_TRUE(seen.insert(info.id).second) << "duplicate catalog id " << info.id;
    // Non-empty --explain material.
    ASSERT_NE(info.summary, nullptr) << info.id;
    ASSERT_NE(info.fix_hint, nullptr) << info.id;
    EXPECT_GT(std::string(info.summary).size(), 0u) << info.id;
    EXPECT_GT(std::string(info.fix_hint).size(), 0u) << info.id;
    // Exactly one README rule-table row "| <id> |".
    const std::string row = "\n| " + std::string(info.id) + " |";
    const std::size_t first = readme.find(row);
    EXPECT_NE(first, std::string::npos) << info.id << " missing from the README rule table";
    if (first != std::string::npos) {
      EXPECT_EQ(readme.find(row, first + 1), std::string::npos)
          << info.id << " appears more than once in the README rule table";
    }
    // The CLI renders the same entry.
    int exit_code = -1;
    const std::string out = run_cli("--explain " + std::string(info.id), exit_code);
    EXPECT_EQ(exit_code, 0) << info.id;
    EXPECT_NE(out.find(info.id), std::string::npos) << out;
    EXPECT_NE(out.find(info.summary), std::string::npos) << out;
  }
  EXPECT_EQ(find_rule_info("ZZ999"), nullptr);
}

// ---------------------------------------------------------------------------
// SV001: stale serve artifacts in a characterization cache.

TEST(ServeHygiene, StaleLeaseIsFlaggedAndLiveLeaseIsNot) {
  const std::string dir = std::string(::testing::TempDir()) + "sv001_cache_" +
                          std::to_string(static_cast<long>(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/3x3/L0.50_0.50_y10");
  // Crash debris (a plain file nobody locks) and a live lease (our own).
  std::ofstream(dir + "/3x3/L0.50_0.50_y10/NAND2_X1.lib.lease") << "";
  auto live = util::FileLease::try_acquire(dir + "/3x3/L0.50_0.50_y10/INV_X1.lib.lease");
  ASSERT_TRUE(live.has_value());

  Linter linter;
  linter.add_rules(serve_rules());
  LintSubject subject;
  subject.cache_dir = dir;
  const std::vector<Diagnostic> report = linter.run(subject);
  ASSERT_EQ(report.size(), 1u) << format_report(report);
  EXPECT_EQ(report[0].rule_id, rules::kStaleServeArtifact);
  EXPECT_EQ(report[0].severity, Severity::kWarning);
  EXPECT_NE(report[0].location.find("NAND2_X1.lib.lease"), std::string::npos);
  EXPECT_NE(report[0].message.find("no process holds"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(ServeHygiene, CacheDirFlagDrivesSv001ThroughTheCli) {
  const std::string dir = std::string(::testing::TempDir()) + "sv001_cli_" +
                          std::to_string(static_cast<long>(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/torn.lease") << "garbage";

  int exit_code = -1;
  const std::string out = run_cli("--cache-dir " + dir, exit_code);
  EXPECT_EQ(exit_code, 1) << out;  // warnings only
  EXPECT_NE(out.find("SV001"), std::string::npos) << out;

  // A clean cache lints clean.
  std::filesystem::remove(dir + "/torn.lease");
  const std::string clean = run_cli("--cache-dir " + dir, exit_code);
  EXPECT_EQ(exit_code, 0) << clean;
  EXPECT_EQ(clean.find("SV001"), std::string::npos) << clean;
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// SV002: debris of the GC protocol — tombstones and mismatched usage stamps.

TEST(ServeHygiene, GcDebrisIsFlaggedAndHealthyPairsAreNot) {
  const std::string dir = std::string(::testing::TempDir()) + "sv002_cache_" +
                          std::to_string(static_cast<long>(::getpid()));
  std::filesystem::remove_all(dir);
  const std::string grid = dir + "/3x3/L0.50_0.50_y10";
  std::filesystem::create_directories(grid);
  // Orphan tombstone: a sweep was killed after writing the marker.
  std::ofstream(grid + "/TOMB.lib") << "library (t) {}\n";
  std::ofstream(grid + "/TOMB.lib.tomb") << "";
  // Stamp without its entry (crash between eviction steps, or hand-deleted).
  std::ofstream(grid + "/ORPHAN.lib.stamp") << "";
  // Entry without a stamp (pre-GC cache or crash right after publish).
  std::ofstream(grid + "/BARE.lib") << "library (b) {}\n";
  // A healthy pair must stay silent.
  std::ofstream(grid + "/GOOD.lib") << "library (g) {}\n";
  std::ofstream(grid + "/GOOD.lib.stamp") << "";

  Linter linter;
  linter.add_rules(serve_rules());
  LintSubject subject;
  subject.cache_dir = dir;
  const std::vector<Diagnostic> report = linter.run(subject);
  ASSERT_EQ(report.size(), 3u) << format_report(report);
  for (const Diagnostic& d : report) {
    EXPECT_EQ(d.rule_id, rules::kOrphanGcArtifact);
    EXPECT_EQ(d.severity, Severity::kWarning);
    EXPECT_EQ(d.location.find("GOOD"), std::string::npos) << d.location;
  }
  const std::string all = format_report(report);
  EXPECT_NE(all.find("TOMB.lib.tomb"), std::string::npos) << all;
  EXPECT_NE(all.find("interrupted sweep"), std::string::npos) << all;
  EXPECT_NE(all.find("ORPHAN.lib.stamp"), std::string::npos) << all;
  EXPECT_NE(all.find("BARE.lib"), std::string::npos) << all;
  std::filesystem::remove_all(dir);
}

TEST(ServeHygiene, TombstoneSuppressesTheStampAndLibFindingsForItsEntry) {
  // Mid-eviction crash leaves lib+stamp+tomb (or just stamp+tomb); the
  // tombstone diagnostic alone tells the whole story — no double report.
  const std::string dir = std::string(::testing::TempDir()) + "sv002_tomb_" +
                          std::to_string(static_cast<long>(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/X.lib.tomb") << "";
  std::ofstream(dir + "/X.lib.stamp") << "";

  Linter linter;
  linter.add_rules(serve_rules());
  LintSubject subject;
  subject.cache_dir = dir;
  const std::vector<Diagnostic> report = linter.run(subject);
  ASSERT_EQ(report.size(), 1u) << format_report(report);
  EXPECT_EQ(report[0].rule_id, rules::kOrphanGcArtifact);
  EXPECT_NE(report[0].location.find("X.lib.tomb"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(ServeHygiene, CacheDirFlagDrivesSv002ThroughTheCli) {
  const std::string dir = std::string(::testing::TempDir()) + "sv002_cli_" +
                          std::to_string(static_cast<long>(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/NAND2_X1.lib.tomb") << "";

  int exit_code = -1;
  const std::string out = run_cli("--cache-dir " + dir, exit_code);
  EXPECT_EQ(exit_code, 1) << out;  // warnings only
  EXPECT_NE(out.find("SV002"), std::string::npos) << out;

  // Completing the sweep (tombstone gone) lints clean.
  std::filesystem::remove(dir + "/NAND2_X1.lib.tomb");
  const std::string clean = run_cli("--cache-dir " + dir, exit_code);
  EXPECT_EQ(exit_code, 0) << clean;
  EXPECT_EQ(clean.find("SV002"), std::string::npos) << clean;
  std::filesystem::remove_all(dir);
}

TEST(RuleCatalog, EveryFixtureDiagnosticIsCataloged) {
  int exit_code = -1;
  const std::string json =
      run_cli("--format json --lib " RW_REPO_DIR "/examples/fixtures/mini.lib " RW_REPO_DIR
              "/tests/fixtures/broken.v",
              exit_code);
  const auto ids = json_rule_ids(json);
  ASSERT_FALSE(ids.empty()) << json;
  for (const std::string& id : ids) {
    EXPECT_NE(find_rule_info(id), nullptr) << id << " is emitted but not cataloged";
  }
}

// ---------------------------------------------------------------------------
// Baselines: record once, suppress exact matches, fail on new findings.

TEST(Baseline, KeyFoldsNewlinesAndIgnoresFixHint) {
  Diagnostic d{"NL001", Severity::kError, "top:u1", "line one\nline two", "hint A"};
  const std::string key = baseline_key(d);
  EXPECT_EQ(key.find('\n'), std::string::npos);
  Diagnostic d2 = d;
  d2.fix_hint = "completely different hint";
  EXPECT_EQ(baseline_key(d2), key);
  d2.message = "other message";
  EXPECT_NE(baseline_key(d2), key);
}

TEST(Baseline, EncodeReadSuppressRoundTrip) {
  const std::vector<Diagnostic> diags = {
      {"NL002", Severity::kError, "top:n1", "floating net", ""},
      {"SP002", Severity::kWarning, "top:n2", "stuck at 0", "remove it"},
      {"NL002", Severity::kError, "top:n1", "floating net", ""},  // duplicate key
  };
  const std::string path = std::string(::testing::TempDir()) + "baseline_roundtrip.txt";
  std::ofstream(path) << encode_baseline(diags);
  std::set<std::string> keys;
  ASSERT_TRUE(read_baseline(path, keys));
  EXPECT_EQ(keys.size(), 2u);  // deduplicated
  std::vector<Diagnostic> report = diags;
  report.push_back({"NL005", Severity::kError, "top:u9", "unknown cell", ""});
  EXPECT_EQ(suppress_baselined(report, keys), 3u);
  ASSERT_EQ(report.size(), 1u);  // only the new finding survives
  EXPECT_EQ(report[0].rule_id, "NL005");
  std::remove(path.c_str());

  std::set<std::string> missing;
  EXPECT_FALSE(read_baseline(path + ".does-not-exist", missing));
  EXPECT_TRUE(missing.empty());
}

TEST(RwlintCli, BaselineRecordsThenSuppressesThenCatchesNewFindings) {
  const std::string path = std::string(::testing::TempDir()) + "rwlint_baseline.txt";
  std::remove(path.c_str());
  const std::string broken = "--lib " RW_REPO_DIR "/examples/fixtures/mini.lib " RW_REPO_DIR
                             "/tests/fixtures/broken.v";
  int exit_code = -1;
  // 1. No baseline yet: the run records the findings and exits 0.
  std::string out = run_cli("--baseline " + path + " " + broken, exit_code);
  EXPECT_EQ(exit_code, 0) << out;
  EXPECT_NE(read_file(path).find("NL001"), std::string::npos);
  // 2. Baseline present: the same findings are suppressed.
  out = run_cli("--baseline " + path + " " + broken, exit_code);
  EXPECT_EQ(exit_code, 0) << out;
  EXPECT_NE(out.find("suppressed by baseline"), std::string::npos) << out;
  // 3. Re-recording against the clean fixture empties the baseline, so the
  // broken design fails again — baselines never mask *new* findings.
  out = run_cli("--baseline " + path + " --update-baseline --lib " RW_REPO_DIR
                "/examples/fixtures/mini.lib " RW_REPO_DIR "/examples/fixtures/clean.v",
                exit_code);
  EXPECT_EQ(exit_code, 0) << out;
  out = run_cli("--baseline " + path + " " + broken, exit_code);
  EXPECT_EQ(exit_code, 2) << out;
  std::remove(path.c_str());
  // 4. --update-baseline without --baseline is a usage error.
  run_cli("--update-baseline " + broken, exit_code);
  EXPECT_EQ(exit_code, 64);
}

}  // namespace
}  // namespace rw::lint
