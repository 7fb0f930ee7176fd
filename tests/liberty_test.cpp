#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "liberty/library.hpp"
#include "liberty/merge.hpp"
#include "liberty/parser.hpp"
#include "liberty/writer.hpp"

namespace rw::liberty {
namespace {

TimingTable make_table(double base) {
  TimingTable t;
  const util::Axis slews({10.0, 100.0});
  const util::Axis loads({1.0, 10.0});
  t.delay_ps = util::Table2D(slews, loads, {base, base + 1, base + 2, base + 3});
  t.out_slew_ps = util::Table2D(slews, loads, {5.0, 6.0, 7.0, 8.0});
  return t;
}

Cell make_nand2() {
  Cell c;
  c.name = "NAND2_X1";
  c.family = "NAND2";
  c.drive_x = 1;
  c.area_um2 = 2.5;
  c.truth = 0b0111;
  c.output_pin = "Z";
  c.pins = {{"A", true, false, 1.25}, {"B", true, false, 1.3}, {"Z", false, false, 0.0}};
  TimingArc a;
  a.related_pin = "A";
  a.sense = TimingSense::kNegativeUnate;
  a.rise = make_table(10.0);
  a.fall = make_table(20.0);
  TimingArc b = a;
  b.related_pin = "B";
  c.arcs = {a, b};
  return c;
}

Cell make_dff() {
  Cell c;
  c.name = "DFF_X1";
  c.family = "DFF";
  c.is_flop = true;
  c.area_um2 = 6.0;
  c.setup_ps = 35.5;
  c.hold_ps = 0.0;
  c.output_pin = "Q";
  c.pins = {{"D", true, false, 0.9}, {"CK", true, true, 1.1}, {"Q", false, false, 0.0}};
  TimingArc ck;
  ck.related_pin = "CK";
  ck.clocked = true;
  ck.sense = TimingSense::kNonUnate;
  ck.rise = make_table(50.0);
  ck.fall = make_table(55.0);
  c.arcs = {ck};
  return c;
}

TEST(Library, AddFindFamily) {
  Library lib("test");
  lib.add_cell(make_nand2());
  Cell bigger = make_nand2();
  bigger.name = "NAND2_X4";
  bigger.drive_x = 4;
  lib.add_cell(bigger);
  EXPECT_THROW(lib.add_cell(make_nand2()), std::invalid_argument);  // duplicate
  EXPECT_NE(lib.find("NAND2_X1"), nullptr);
  EXPECT_EQ(lib.find("NOPE"), nullptr);
  EXPECT_THROW((void)lib.at("NOPE"), std::out_of_range);
  const auto family = lib.family("NAND2");
  ASSERT_EQ(family.size(), 2u);
  EXPECT_EQ(family[0]->drive_x, 1);  // sorted by drive
  EXPECT_EQ(family[1]->drive_x, 4);
}

TEST(Cell, PinQueries) {
  const Cell c = make_nand2();
  EXPECT_EQ(c.n_inputs(), 2);
  EXPECT_DOUBLE_EQ(c.input_cap_ff("B"), 1.3);
  EXPECT_THROW((void)c.input_cap_ff("Z"), std::out_of_range);
  ASSERT_NE(c.arc_from("A"), nullptr);
  EXPECT_EQ(c.arc_from("Q"), nullptr);
}

TEST(WriterParser, RoundTripPreservesEverything) {
  Library lib("rt");
  lib.add_cell(make_nand2());
  lib.add_cell(make_dff());

  const std::string text = write_library(lib);
  const Library parsed = parse_library(text);

  EXPECT_EQ(parsed.name(), "rt");
  ASSERT_EQ(parsed.size(), 2u);

  const Cell& nand = parsed.at("NAND2_X1");
  EXPECT_EQ(nand.family, "NAND2");
  EXPECT_EQ(nand.drive_x, 1);
  EXPECT_DOUBLE_EQ(nand.area_um2, 2.5);
  EXPECT_EQ(nand.truth, 0b0111u);
  EXPECT_FALSE(nand.is_flop);
  ASSERT_EQ(nand.pins.size(), 3u);
  EXPECT_DOUBLE_EQ(nand.pins[1].cap_ff, 1.3);
  ASSERT_EQ(nand.arcs.size(), 2u);
  EXPECT_EQ(nand.arcs[0].sense, TimingSense::kNegativeUnate);
  EXPECT_DOUBLE_EQ(nand.arcs[0].rise.delay_ps.lookup(10.0, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(nand.arcs[0].fall.delay_ps.lookup(100.0, 10.0), 23.0);
  EXPECT_DOUBLE_EQ(nand.arcs[0].rise.out_slew_ps.lookup(10.0, 10.0), 6.0);

  const Cell& dff = parsed.at("DFF_X1");
  EXPECT_TRUE(dff.is_flop);
  EXPECT_DOUBLE_EQ(dff.setup_ps, 35.5);
  ASSERT_EQ(dff.arcs.size(), 1u);
  EXPECT_TRUE(dff.arcs[0].clocked);
  EXPECT_TRUE(dff.pins[1].is_clock);
}

TEST(WriterParser, InterpMarkerRoundTrips) {
  // The adaptive λ-grid provenance marker survives write -> parse, so
  // disk-cached interpolated cells keep their certified bound (LB007 audits
  // it) across factory restarts and manifest resumes.
  Library lib("interp");
  Cell c = make_nand2();
  c.interp = InterpMarker{0.2, 0.4, 0.0, 0.2, 1.234567};
  lib.add_cell(c);

  const Library parsed = parse_library(write_library(lib));
  const Cell& rt = parsed.at("NAND2_X1");
  ASSERT_TRUE(rt.interp.has_value());
  EXPECT_DOUBLE_EQ(rt.interp->lambda_p_lo, 0.2);
  EXPECT_DOUBLE_EQ(rt.interp->lambda_p_hi, 0.4);
  EXPECT_DOUBLE_EQ(rt.interp->lambda_n_lo, 0.0);
  EXPECT_DOUBLE_EQ(rt.interp->lambda_n_hi, 0.2);
  EXPECT_NEAR(rt.interp->bound_ps, 1.234567, 1e-6);  // writer carries 6 decimals

  // Cells without the marker stay marker-free through the round trip.
  Library plain("plain");
  plain.add_cell(make_nand2());
  EXPECT_FALSE(parse_library(write_library(plain)).at("NAND2_X1").interp.has_value());
}

TEST(WriterParser, DoubleRoundTripIsStable) {
  Library lib("rt");
  lib.add_cell(make_nand2());
  const std::string once = write_library(lib);
  const std::string twice = write_library(parse_library(once));
  EXPECT_EQ(once, twice);
}

TEST(Parser, ReportsSyntaxErrorsWithLine) {
  EXPECT_THROW(parse_library("library (x) { cell (y) { area : }"), std::runtime_error);
  EXPECT_THROW(parse_library("cell (y) {}"), std::runtime_error);
  try {
    parse_library("library (x) {\n  !!!\n}");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line "), std::string::npos) << e.what();
  }
}

TEST(Parser, ToleratesCommentsAndContinuations) {
  const std::string text = R"(/* header */
library (c) {
  /* multi
     line comment */
  cell (INV_X1) {
    area : 1.0;
    rw_truth : 1;
    pin (A) { direction : input; capacitance : 1.0; }
    pin (Z) { direction : output; }
  }
}
)";
  const Library lib = parse_library(text);
  EXPECT_EQ(lib.size(), 1u);
}

/// The 1-based line of the first `needle` in `text`.
int line_of(const std::string& text, const std::string& needle) {
  const auto end = text.begin() + static_cast<std::ptrdiff_t>(text.find(needle));
  return 1 + static_cast<int>(std::count(text.begin(), end, '\n'));
}

TEST(Parser, RejectsJunkNumbersWithLine) {
  // Every number is read as one whole token: a prefix-valid "1.6x" or a word
  // where a number belongs is a line-numbered parse error, not 1.6 or 0.
  Library lib("strict");
  Cell nand = make_nand2();
  nand.fallbacks.push_back(FallbackPoint{"A", true, 1, 0});
  nand.interp = InterpMarker{0.2, 0.4, 0.0, 0.2, 1.5};
  lib.add_cell(nand);
  lib.add_cell(make_dff());
  const std::string text = write_library(lib);
  const struct {
    const char* from;
    const char* to;
  } rows[] = {
      {"area : 2.5000;", "area : banana;"},
      {"capacitance : 1.2500;", "capacitance : 1.6x;"},
      {"capacitance : 1.2500;", "capacitance : 1,25;"},
      {"rw_drive : 1;", "rw_drive : 1.5;"},
      {"rw_truth : 7;", "rw_truth : -7;"},
      {"rw_truth : 7;", "rw_truth : 7z;"},
      {"rw_setup : 35.5000;", "rw_setup : 35.5ps;"},
      {"rw_hold : 0.0000;", "rw_hold : inf;"},
      {"\"A:rise:1:0\"", "\"A:rise:1x:0\""},
      {"\"A:rise:1:0\"", "\"A:up:1:0\""},
      {"\"A:rise:1:0\"", "\"A:rise::1:0\""},
      {"\"0.2000:0.4000:", "\"0.2000:0.4O00:"},
      {":1.500000\"", ":+1.500000\""},
      {"index_1 (\"10.0000, 100.0000\")", "index_1 (\"10.0000, 1e2x\")"},
      {"index_2 (\"1.0000, 10.0000\")", "index_2 (\"1.0000, 0x10\")"},
      {"\"10.0000, 11.0000\"", "\"10.0000, 11.0000abc\""},
      {"\"10.0000, 11.0000\"", "\"10.0000, 1e999\""},
  };
  for (const auto& row : rows) {
    std::string bad = text;
    const std::size_t pos = bad.find(row.from);
    ASSERT_NE(pos, std::string::npos) << row.from;
    bad.replace(pos, std::string(row.from).size(), row.to);
    const std::string where = "line " + std::to_string(line_of(bad, row.to)) + ":";
    try {
      (void)parse_library(bad);
      ADD_FAILURE() << "accepted " << row.to;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
          << row.to << " -> " << e.what();
    }
  }
}

TEST(Parser, NonFiniteTableEntriesParse) {
  // NaN/inf in an NLDM table is a finding of the library rules (LB001), so
  // the reader keeps it instead of refusing the file.
  Library lib("nonfinite");
  lib.add_cell(make_nand2());
  std::string text = write_library(lib);
  const std::string row = "\"10.0000, 11.0000\"";
  text.replace(text.find(row), row.size(), "\"nan, -inf\"");
  const Library parsed = parse_library(text);
  const Cell& c = parsed.at("NAND2_X1");
  EXPECT_TRUE(std::isnan(c.arcs[0].rise.delay_ps.at(0, 0)));
  EXPECT_TRUE(std::isinf(c.arcs[0].rise.delay_ps.at(0, 1)));
  EXPECT_LT(c.arcs[0].rise.delay_ps.at(0, 1), 0.0);
}

TEST(Parser, KeepsContinuationsAndMultiTokenValues) {
  // A string split by backslash-newline reads as one; an attribute value of
  // several tokens is joined by single spaces.
  const std::string text =
      "library (c) {\n"
      "  cell (INV_X1) {\n"
      "    area : 1.0;\n"
      "    rw_family : two words;\n"
      "    rw_truth : 1;\n"
      "    pin (A) { direction : input; capacitance : 1.0; }\n"
      "    pin (Z) { direction : output;\n"
      "      timing () { related_pin : \"A\";\n"
      "        cell_rise () { index_1 (\"1.0, 2.\\\n0\"); index_2 (\"1.0\");\n"
      "          values (\"3.0\", \"4.0\"); }\n"
      "      }\n"
      "    }\n"
      "  }\n"
      "}\n";
  const Library parsed = parse_library(text);
  const Cell& c = parsed.at("INV_X1");
  EXPECT_EQ(c.family, "two words");
  ASSERT_EQ(c.arcs.size(), 1u);
  EXPECT_DOUBLE_EQ(c.arcs[0].rise.delay_ps.x_axis()[1], 2.0);
  EXPECT_DOUBLE_EQ(c.arcs[0].rise.delay_ps.at(1, 0), 4.0);
}

TEST(Merge, IndexesCellNames) {
  Library a("a");
  a.add_cell(make_nand2());
  Library b("b");
  b.add_cell(make_nand2());

  const Library merged = merge_libraries({{aging::AgingScenario{0.4, 0.6, 10.0, true}, &a},
                                          {aging::AgingScenario{0.9, 0.5, 10.0, true}, &b}});
  EXPECT_EQ(merged.size(), 2u);
  EXPECT_NE(merged.find("NAND2_X1_0.40_0.60"), nullptr);
  EXPECT_NE(merged.find("NAND2_X1_0.90_0.50"), nullptr);
  EXPECT_EQ(merged.find("NAND2_X1"), nullptr);
}

TEST(Merge, RejectsDuplicateCorners) {
  Library a("a");
  a.add_cell(make_nand2());
  EXPECT_THROW(merge_libraries({{aging::AgingScenario{0.4, 0.6, 10.0, true}, &a},
                                {aging::AgingScenario{0.4, 0.6, 1.0, true}, &a}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace rw::liberty
