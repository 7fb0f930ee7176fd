#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "charlib/adaptive.hpp"
#include "lint/rules.hpp"
#include "util/strings.hpp"

namespace rw::lint {

namespace {

/// Every (table, name) pair of a cell, for uniform iteration.
struct NamedTable {
  const util::Table2D* table;
  std::string name;     ///< e.g. "arc A cell_rise"
  bool is_slew = false;  ///< transition table (vs propagation delay)
};

std::vector<NamedTable> cell_tables(const liberty::Cell& cell) {
  std::vector<NamedTable> out;
  for (const auto& arc : cell.arcs) {
    const std::string prefix = "arc " + arc.related_pin + " ";
    if (!arc.rise.empty()) {
      out.push_back({&arc.rise.delay_ps, prefix + "cell_rise", false});
      out.push_back({&arc.rise.out_slew_ps, prefix + "rise_transition", true});
    }
    if (!arc.fall.empty()) {
      out.push_back({&arc.fall.delay_ps, prefix + "cell_fall", false});
      out.push_back({&arc.fall.out_slew_ps, prefix + "fall_transition", true});
    }
  }
  return out;
}

std::string cell_loc(const liberty::Library& library, const liberty::Cell& cell) {
  return library.name() + ":" + cell.name;
}

/// LB001: NLDM values must be finite, and slews non-negative — NaN/inf or a
/// negative transition time poisons every downstream interpolation (error).
/// A negative *delay* is only a warning: under the 50%-to-50% measurement
/// convention a gate driven by a very slow edge into a tiny load genuinely
/// crosses before its input does, and real characterized libraries contain
/// such corners.
class NldmValueRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "library.values"; }
  [[nodiscard]] std::string_view description() const override {
    return "NLDM entries are finite; slews non-negative";
  }
  void run(const LintSubject& subject, std::vector<Diagnostic>& out) const override {
    if (subject.library == nullptr) return;
    for (const auto& cell : subject.library->cells()) {
      for (const auto& [table, name, is_slew] : cell_tables(cell)) {
        for (std::size_t i = 0; i < table->x_axis().size(); ++i) {
          for (std::size_t j = 0; j < table->y_axis().size(); ++j) {
            const double v = table->at(i, j);
            if (std::isfinite(v) && v >= 0.0) continue;
            const bool fatal = !std::isfinite(v) || is_slew;
            out.push_back(Diagnostic{
                rules::kNegativeNldm, fatal ? Severity::kError : Severity::kWarning,
                cell_loc(*subject.library, cell) + " " + name,
                "value " + std::to_string(v) + " at (slew " +
                    util::format_fixed(table->x_axis()[i], 2) + " ps, load " +
                    util::format_fixed(table->y_axis()[j], 2) + " fF) is not a valid " +
                    (is_slew ? "slew" : "delay"),
                "re-characterize the arc"});
            break;  // one finding per table row is enough
          }
        }
      }
    }
  }
};

/// LB002: delay and slew must be non-decreasing along the load axis — more
/// capacitance can never make a gate faster. (The slew axis is deliberately
/// not checked: mild non-monotonicity vs input slew occurs in real NLDM.)
class NldmMonotoneRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "library.monotone"; }
  [[nodiscard]] std::string_view description() const override {
    return "NLDM tables are monotone non-decreasing along the load axis";
  }
  void run(const LintSubject& subject, std::vector<Diagnostic>& out) const override {
    if (subject.library == nullptr) return;
    for (const auto& cell : subject.library->cells()) {
      for (const auto& [table, name, is_slew] : cell_tables(cell)) {
        for (std::size_t i = 0; i < table->x_axis().size(); ++i) {
          for (std::size_t j = 1; j < table->y_axis().size(); ++j) {
            const double prev = table->at(i, j - 1);
            const double cur = table->at(i, j);
            const double tol = 1e-9 + 1e-6 * std::abs(prev);
            if (cur + tol >= prev) continue;
            out.push_back(Diagnostic{
                rules::kNonMonotoneNldm, Severity::kWarning,
                cell_loc(*subject.library, cell) + " " + name,
                "drops from " + util::format_fixed(prev, 4) + " to " + util::format_fixed(cur, 4) +
                    " ps between loads " + util::format_fixed(table->y_axis()[j - 1], 2) +
                    " and " + util::format_fixed(table->y_axis()[j], 2) + " fF (slew " +
                    util::format_fixed(table->x_axis()[i], 2) + " ps)",
                "re-characterize the arc; check solver convergence"});
            i = table->x_axis().size() - 1;  // one finding per table
            break;
          }
        }
      }
    }
  }
};

/// LB003: every table in the library indexes the same (slew, load) grid —
/// and, when an expected OPC grid is given, exactly that grid.
class GridRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "library.grid"; }
  [[nodiscard]] std::string_view description() const override {
    return "all NLDM tables share one OPC index grid";
  }
  void run(const LintSubject& subject, std::vector<Diagnostic>& out) const override {
    if (subject.library == nullptr) return;
    const std::vector<double>* ref_slews = nullptr;
    const std::vector<double>* ref_loads = nullptr;
    std::string ref_loc = "the OPC grid option";
    if (subject.expected_grid != nullptr) {
      ref_slews = &subject.expected_grid->slews_ps;
      ref_loads = &subject.expected_grid->loads_ff;
    }
    for (const auto& cell : subject.library->cells()) {
      for (const auto& [table, name, is_slew] : cell_tables(cell)) {
        const auto& slews = table->x_axis().points();
        const auto& loads = table->y_axis().points();
        if (ref_slews == nullptr) {
          // No expected grid: the first table becomes the intra-library reference.
          ref_slews = &slews;
          ref_loads = &loads;
          ref_loc = cell.name + " " + name;
          continue;
        }
        if (slews == *ref_slews && loads == *ref_loads) continue;
        out.push_back(Diagnostic{
            rules::kGridMismatch, Severity::kWarning,
            cell_loc(*subject.library, cell) + " " + name,
            "indexes a " + std::to_string(slews.size()) + "x" + std::to_string(loads.size()) +
                " grid that differs from " + ref_loc + " (" +
                std::to_string(ref_slews->size()) + "x" + std::to_string(ref_loads->size()) + ")",
            "characterize every arc on one OPC grid"});
      }
    }
  }
};

/// LB004: arcs must cover the cell function — one arc per input pin for
/// combinational cells, a clocked CK->Q arc for flops — and reference only
/// real input pins.
class ArcCoverageRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "library.arcs"; }
  [[nodiscard]] std::string_view description() const override {
    return "timing arcs cover every input pin (CK->Q for flops)";
  }
  void run(const LintSubject& subject, std::vector<Diagnostic>& out) const override {
    if (subject.library == nullptr) return;
    for (const auto& cell : subject.library->cells()) {
      const std::string loc = cell_loc(*subject.library, cell);
      for (const auto& arc : cell.arcs) {
        const liberty::Pin* pin = cell.find_pin(arc.related_pin);
        if (pin == nullptr || !pin->is_input) {
          out.push_back(Diagnostic{rules::kMissingArc, Severity::kError, loc,
                                   "timing arc references non-input pin " + arc.related_pin,
                                   "fix the arc's related_pin"});
        }
      }
      if (cell.is_flop) {
        bool clocked = false;
        for (const auto& arc : cell.arcs) clocked = clocked || arc.clocked;
        if (!clocked) {
          out.push_back(Diagnostic{rules::kMissingArc, Severity::kError, loc,
                                   "flop has no clocked CK->Q arc",
                                   "characterize the clock-to-output arc"});
        }
        continue;
      }
      for (const auto* pin : cell.input_pins()) {
        const liberty::TimingArc* arc = cell.arc_from(pin->name);
        if (arc == nullptr || (arc->rise.empty() && arc->fall.empty())) {
          out.push_back(Diagnostic{rules::kMissingArc, Severity::kError, loc,
                                   "input pin " + pin->name + " has no timing arc",
                                   "characterize the " + pin->name + "->" + cell.output_pin +
                                       " arc"});
        }
      }
    }
  }
};

/// LB005: an aged cell must never be faster than its fresh counterpart —
/// BTI only degrades. An inversion means the two libraries were
/// characterized inconsistently (grid, solver, or swapped inputs).
class AgingInversionRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "library.aging"; }
  [[nodiscard]] std::string_view description() const override {
    return "aged delays dominate fresh delays pointwise";
  }
  void run(const LintSubject& subject, std::vector<Diagnostic>& out) const override {
    if (subject.library == nullptr || subject.fresh == nullptr ||
        subject.library == subject.fresh) {
      return;
    }
    for (const auto& cell : subject.library->cells()) {
      const ResolvedCell r = resolve_cell(*subject.fresh, cell.name, IndexRange::kAny);
      const liberty::Cell* fresh = r.cell;
      if (fresh == nullptr || fresh == &cell) continue;
      for (const auto& arc : cell.arcs) {
        const liberty::TimingArc* fresh_arc = fresh->arc_from(arc.related_pin);
        if (fresh_arc == nullptr) continue;
        check_table(subject, cell, arc.related_pin, "cell_rise", arc.rise.delay_ps,
                    fresh_arc->rise.delay_ps, out);
        check_table(subject, cell, arc.related_pin, "cell_fall", arc.fall.delay_ps,
                    fresh_arc->fall.delay_ps, out);
      }
    }
  }

 private:
  static void check_table(const LintSubject& subject, const liberty::Cell& cell,
                          const std::string& pin, const char* which, const util::Table2D& aged,
                          const util::Table2D& fresh, std::vector<Diagnostic>& out) {
    if (aged.values().size() != fresh.values().size()) return;  // LB003 territory
    for (std::size_t k = 0; k < aged.values().size(); ++k) {
      const double f = fresh.values()[k];
      const double a = aged.values()[k];
      const double tol = 1e-9 + 1e-6 * std::abs(f);
      if (a + tol >= f) continue;
      out.push_back(Diagnostic{
          rules::kAgedFasterThanFresh, Severity::kWarning,
          subject.library->name() + ":" + cell.name + " arc " + pin + " " + which,
          "aged delay " + util::format_fixed(a, 4) + " ps < fresh " + util::format_fixed(f, 4) +
              " ps",
          "re-characterize: aging can only slow a cell down"});
      return;  // one finding per table
    }
  }
};

/// LB006: cells carrying `rw_fallback` markers were characterized with OPC
/// points that never converged (even through the solver's retry ladder) and
/// were interpolated from grid neighbors. The library is usable, but those
/// entries are second-class data — STA consumers and sign-off should know.
class FallbackPointRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "library.fallback"; }
  [[nodiscard]] std::string_view description() const override {
    return "cells with interpolated (rw_fallback) OPC points";
  }
  void run(const LintSubject& subject, std::vector<Diagnostic>& out) const override {
    if (subject.library == nullptr) return;
    for (const auto& cell : subject.library->cells()) {
      if (cell.fallbacks.empty()) continue;
      std::string points;
      const std::size_t shown = std::min<std::size_t>(cell.fallbacks.size(), 4);
      for (std::size_t i = 0; i < shown; ++i) {
        const auto& f = cell.fallbacks[i];
        if (i != 0) points += ", ";
        points += f.related_pin + ":" + (f.rising ? "rise" : "fall") + ":(" +
                  std::to_string(f.slew_index) + "," + std::to_string(f.load_index) + ")";
      }
      if (cell.fallbacks.size() > shown) points += ", ...";
      out.push_back(Diagnostic{
          rules::kFallbackPoint, Severity::kWarning, cell_loc(*subject.library, cell),
          std::to_string(cell.fallbacks.size()) +
              " OPC point(s) did not converge and were interpolated from neighbors: " + points,
          "re-characterize with a deeper retry ladder (RW_CHAR_MAX_RETRIES) or accept "
          "interpolated timing"});
    }
  }
};

/// LB007: cells carrying an `rw_interp` marker were served by certified
/// λ-lattice interpolation instead of direct SPICE characterization. That is
/// by design — but a marker whose certified error bound exceeds the flow's
/// interpolation tolerance ($RW_CHAR_INTERP_TOL_PS) means the library was
/// produced under a looser policy than the one now in force, or predates a
/// tolerance tightening; the corner should be refined.
class InterpBoundRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "library.interp_bound"; }
  [[nodiscard]] std::string_view description() const override {
    return "λ-interpolated cells (rw_interp) whose certified bound exceeds the flow tolerance";
  }
  void run(const LintSubject& subject, std::vector<Diagnostic>& out) const override {
    if (subject.library == nullptr) return;
    const double tol_ps = charlib::AdaptiveGridOptions::from_env().interp_tol_ps;
    for (const auto& cell : subject.library->cells()) {
      if (!cell.interp.has_value()) continue;
      const liberty::InterpMarker& m = *cell.interp;
      if (m.bound_ps <= tol_ps) continue;
      out.push_back(Diagnostic{
          rules::kInterpBound, Severity::kWarning, cell_loc(*subject.library, cell),
          "interpolated from λp [" + util::format_fixed(m.lambda_p_lo, 2) + ", " +
              util::format_fixed(m.lambda_p_hi, 2) + "] × λn [" +
              util::format_fixed(m.lambda_n_lo, 2) + ", " + util::format_fixed(m.lambda_n_hi, 2) +
              "] with certified bound " + util::format_fixed(m.bound_ps, 3) + " ps > tolerance " +
              util::format_fixed(tol_ps, 3) + " ps",
          "characterize this (λp, λn) corner directly, or raise RW_CHAR_INTERP_TOL_PS if the "
          "looser bound is acceptable"});
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> library_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<NldmValueRule>());
  rules.push_back(std::make_unique<NldmMonotoneRule>());
  rules.push_back(std::make_unique<GridRule>());
  rules.push_back(std::make_unique<ArcCoverageRule>());
  rules.push_back(std::make_unique<AgingInversionRule>());
  rules.push_back(std::make_unique<FallbackPointRule>());
  rules.push_back(std::make_unique<InterpBoundRule>());
  return rules;
}

}  // namespace rw::lint
