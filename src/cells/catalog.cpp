#include "cells/catalog.hpp"

#include <cmath>
#include <stdexcept>

namespace rw::cells {

namespace {

SpExpr in(const std::string& s) { return SpExpr::leaf(s); }

std::vector<std::string> pins_abc(std::size_t n) {
  const std::vector<std::string> all = {"A", "B", "C", "D"};
  return {all.begin(), all.begin() + static_cast<std::ptrdiff_t>(n)};
}

SpExpr series_of(const std::vector<std::string>& sigs) {
  std::vector<SpExpr> kids;
  kids.reserve(sigs.size());
  for (const auto& s : sigs) kids.push_back(in(s));
  return SpExpr::series(std::move(kids));
}

SpExpr parallel_of(const std::vector<std::string>& sigs) {
  std::vector<SpExpr> kids;
  kids.reserve(sigs.size());
  for (const auto& s : sigs) kids.push_back(in(s));
  return SpExpr::parallel(std::move(kids));
}

CellSpec make(const std::string& family, int drive_x, std::vector<std::string> inputs,
              std::vector<Stage> stages) {
  CellSpec c;
  c.family = family;
  c.drive_x = drive_x;
  c.name = family + "_X" + std::to_string(drive_x);
  c.inputs = std::move(inputs);
  c.stages = std::move(stages);
  return c;
}

void add_inv(std::vector<CellSpec>& out, int x) {
  out.push_back(
      make("INV", x, {"A"}, {Stage{in("A"), "Z", static_cast<double>(x)}}));
}

void add_buf(std::vector<CellSpec>& out, int x) {
  // First stage sized geometrically for a balanced two-stage buffer.
  const double first = std::max(1.0, std::round(std::sqrt(static_cast<double>(x))));
  out.push_back(make("BUF", x,
                     {"A"},
                     {Stage{in("A"), "i1", first},
                      Stage{in("i1"), "Z", static_cast<double>(x)}}));
}

void add_nand(std::vector<CellSpec>& out, std::size_t n, int x) {
  const auto pins = pins_abc(n);
  out.push_back(make("NAND" + std::to_string(n), x, pins,
                     {Stage{series_of(pins), "Z", static_cast<double>(x)}}));
}

void add_nor(std::vector<CellSpec>& out, std::size_t n, int x) {
  const auto pins = pins_abc(n);
  out.push_back(make("NOR" + std::to_string(n), x, pins,
                     {Stage{parallel_of(pins), "Z", static_cast<double>(x)}}));
}

void add_and(std::vector<CellSpec>& out, std::size_t n, int x) {
  const auto pins = pins_abc(n);
  out.push_back(make("AND" + std::to_string(n), x, pins,
                     {Stage{series_of(pins), "i1", 1.0},
                      Stage{in("i1"), "Z", static_cast<double>(x)}}));
}

void add_or(std::vector<CellSpec>& out, std::size_t n, int x) {
  const auto pins = pins_abc(n);
  out.push_back(make("OR" + std::to_string(n), x, pins,
                     {Stage{parallel_of(pins), "i1", 1.0},
                      Stage{in("i1"), "Z", static_cast<double>(x)}}));
}

void add_xor2(std::vector<CellSpec>& out, int x) {
  // NAND-tree XOR: t1 = NAND(A,B); Z = NAND(NAND(A,t1), NAND(B,t1)).
  out.push_back(make("XOR2", x, {"A", "B"},
                     {Stage{SpExpr::series({in("A"), in("B")}), "t1", 1.0},
                      Stage{SpExpr::series({in("A"), in("t1")}), "t2", 1.0},
                      Stage{SpExpr::series({in("B"), in("t1")}), "t3", 1.0},
                      Stage{SpExpr::series({in("t2"), in("t3")}), "Z",
                            static_cast<double>(x)}}));
}

void add_xnor2(std::vector<CellSpec>& out, int x) {
  // NOR-tree XNOR (dual of the NAND-tree XOR).
  out.push_back(make("XNOR2", x, {"A", "B"},
                     {Stage{SpExpr::parallel({in("A"), in("B")}), "t1", 1.0},
                      Stage{SpExpr::parallel({in("A"), in("t1")}), "t2", 1.0},
                      Stage{SpExpr::parallel({in("B"), in("t1")}), "t3", 1.0},
                      Stage{SpExpr::parallel({in("t2"), in("t3")}), "Z",
                            static_cast<double>(x)}}));
}

void add_aoi21(std::vector<CellSpec>& out, int x) {
  out.push_back(make("AOI21", x, {"A", "B", "C"},
                     {Stage{SpExpr::parallel({SpExpr::series({in("A"), in("B")}), in("C")}), "Z",
                            static_cast<double>(x)}}));
}

void add_oai21(std::vector<CellSpec>& out, int x) {
  out.push_back(make("OAI21", x, {"A", "B", "C"},
                     {Stage{SpExpr::series({SpExpr::parallel({in("A"), in("B")}), in("C")}), "Z",
                            static_cast<double>(x)}}));
}

void add_aoi22(std::vector<CellSpec>& out, int x) {
  out.push_back(make("AOI22", x, {"A", "B", "C", "D"},
                     {Stage{SpExpr::parallel({SpExpr::series({in("A"), in("B")}),
                                              SpExpr::series({in("C"), in("D")})}),
                            "Z", static_cast<double>(x)}}));
}

void add_oai22(std::vector<CellSpec>& out, int x) {
  out.push_back(make("OAI22", x, {"A", "B", "C", "D"},
                     {Stage{SpExpr::series({SpExpr::parallel({in("A"), in("B")}),
                                            SpExpr::parallel({in("C"), in("D")})}),
                            "Z", static_cast<double>(x)}}));
}

void add_mux2(std::vector<CellSpec>& out, int x) {
  // Z = A when S=0, B when S=1: Z = NAND(NAND(A, Sn), NAND(B, S)).
  out.push_back(make("MUX2", x, {"A", "B", "S"},
                     {Stage{in("S"), "sn", 1.0},
                      Stage{SpExpr::series({in("A"), in("sn")}), "t1", 1.0},
                      Stage{SpExpr::series({in("B"), in("S")}), "t2", 1.0},
                      Stage{SpExpr::series({in("t1"), in("t2")}), "Z",
                            static_cast<double>(x)}}));
}

void add_dff(std::vector<CellSpec>& out, int x) {
  CellSpec c;
  c.family = "DFF";
  c.drive_x = x;
  c.name = "DFF_X" + std::to_string(x);
  c.inputs = {"D", "CK"};
  c.output = "Q";
  c.is_flop = true;
  out.push_back(std::move(c));
}

std::vector<CellSpec> build_catalog() {
  std::vector<CellSpec> cells;
  for (int x : {1, 2, 4, 8, 16}) add_inv(cells, x);
  for (int x : {1, 2, 4, 8}) add_buf(cells, x);
  for (int x : {1, 2, 4}) add_nand(cells, 2, x);
  for (int x : {1, 2}) add_nand(cells, 3, x);
  for (int x : {1, 2}) add_nand(cells, 4, x);
  for (int x : {1, 2, 4}) add_nor(cells, 2, x);
  for (int x : {1, 2}) add_nor(cells, 3, x);
  for (int x : {1, 2}) add_nor(cells, 4, x);
  for (int x : {1, 2, 4}) add_and(cells, 2, x);
  for (int x : {1, 2}) add_and(cells, 3, x);
  for (int x : {1, 2}) add_and(cells, 4, x);
  for (int x : {1, 2, 4}) add_or(cells, 2, x);
  for (int x : {1, 2}) add_or(cells, 3, x);
  for (int x : {1, 2}) add_or(cells, 4, x);
  for (int x : {1, 2, 4}) add_xor2(cells, x);
  for (int x : {1, 2, 4}) add_xnor2(cells, x);
  for (int x : {1, 2, 4}) add_aoi21(cells, x);
  for (int x : {1, 2, 4}) add_oai21(cells, x);
  for (int x : {1, 2}) add_aoi22(cells, x);
  for (int x : {1, 2}) add_oai22(cells, x);
  for (int x : {1, 2, 4}) add_mux2(cells, x);
  for (int x : {1, 2, 4}) add_dff(cells, x);
  return cells;
}

}  // namespace

const std::vector<CellSpec>& catalog() {
  static const std::vector<CellSpec> cells = build_catalog();
  return cells;
}

const CellSpec& find_cell(const std::string& name) {
  for (const auto& c : catalog()) {
    if (c.name == name) return c;
  }
  throw std::out_of_range("find_cell: no cell named " + name);
}

}  // namespace rw::cells
