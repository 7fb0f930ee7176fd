#include "liberty/library.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/strings.hpp"

namespace rw::liberty {

std::vector<const Pin*> Cell::input_pins() const {
  std::vector<const Pin*> out;
  for (const auto& p : pins) {
    if (p.is_input) out.push_back(&p);
  }
  return out;
}

const Pin& Cell::input_pin(std::size_t j) const {
  for (const auto& p : pins) {
    if (!p.is_input) continue;
    if (j == 0) return p;
    --j;
  }
  throw std::out_of_range("Cell::input_pin: too few input pins on " + name);
}

int Cell::n_inputs() const {
  int n = 0;
  for (const auto& p : pins) {
    if (p.is_input) ++n;
  }
  return n;
}

const Pin* Cell::find_pin(const std::string& pin_name) const {
  for (const auto& p : pins) {
    if (p.name == pin_name) return &p;
  }
  return nullptr;
}

double Cell::input_cap_ff(const std::string& pin_name) const {
  const Pin* p = find_pin(pin_name);
  if (p == nullptr || !p->is_input) {
    throw std::out_of_range("Cell::input_cap_ff: no input pin " + pin_name + " on " + name);
  }
  return p->cap_ff;
}

const TimingArc* Cell::arc_from(const std::string& related_pin) const {
  for (const auto& a : arcs) {
    if (a.related_pin == related_pin) return &a;
  }
  return nullptr;
}

Library::Library(std::string name) : name_(std::move(name)) {}

void Library::add_cell(Cell cell) {
  if (index_.contains(cell.name)) {
    throw std::invalid_argument("Library::add_cell: duplicate cell " + cell.name);
  }
  index_.emplace(cell.name, cells_.size());
  cells_.push_back(std::move(cell));
}

const Cell* Library::find(const std::string& cell_name) const {
  const auto it = index_.find(cell_name);
  return it == index_.end() ? nullptr : &cells_[it->second];
}

const Cell& Library::at(const std::string& cell_name) const {
  const Cell* c = find(cell_name);
  if (c == nullptr) {
    throw std::out_of_range("Library::at: no cell " + cell_name + " in " + name_);
  }
  return *c;
}

Cell Library::take(const std::string& cell_name) && {
  const auto it = index_.find(cell_name);
  if (it == index_.end()) throw std::out_of_range("Library::take: unknown cell " + cell_name);
  return std::move(cells_[it->second]);
}

ResolvedCell resolve_cell(const Library& library, const std::string& name, IndexRange range) {
  ResolvedCell r;
  r.base = name;
  r.indexed = util::split_indexed_cell_name(name, r.base, r.lambda_p, r.lambda_n);
  r.cell = library.find(name);
  r.exact = r.cell != nullptr;
  const bool in_range = range == IndexRange::kAny ||
                        (r.lambda_p >= 0.0 && r.lambda_p <= 1.0 && r.lambda_n >= 0.0 &&
                         r.lambda_n <= 1.0);
  if (r.cell == nullptr && r.indexed && in_range) r.cell = library.find(r.base);
  return r;
}

std::vector<const Cell*> Library::family(const std::string& family_name) const {
  std::vector<const Cell*> out;
  for (const auto& c : cells_) {
    if (c.family == family_name) out.push_back(&c);
  }
  std::sort(out.begin(), out.end(),
            [](const Cell* a, const Cell* b) { return a->drive_x < b->drive_x; });
  return out;
}

}  // namespace rw::liberty
