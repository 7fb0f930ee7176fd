#include <memory>
#include <set>
#include <string>
#include <vector>

#include "lint/rules.hpp"
#include "util/strings.hpp"

namespace rw::lint {

namespace {

std::string lambda_pair(double lp, double ln) {
  return "(" + util::format_lambda(lp) + ", " + util::format_lambda(ln) + ")";
}

/// AN001 / AN002 / AN003 in one pass over the instances. The three findings
/// are mutually exclusive per instance:
///  * AN001 (error)   — λ index outside [0,1]; such a corner cannot exist, so
///                      no missing-corner report is added on top.
///  * AN002 (error)   — in-range λ index whose `CELL_<λp>_<λn>` variant the
///                      library does not hold (the merged library misses a
///                      corner the netlist uses).
///  * AN003 (warning) — plain cell name in a library that also carries
///                      λ-indexed variants of it: the instance silently times
///                      as fresh while the rest of the design ages.
class AnnotationRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "netlist.annotation"; }
  [[nodiscard]] std::string_view description() const override {
    return "λ-indexed instances map onto real merged-library corners";
  }
  void run(const LintSubject& subject, std::vector<Diagnostic>& out) const override {
    if (subject.module == nullptr || subject.library == nullptr) return;
    const netlist::Module& m = *subject.module;
    const liberty::Library& lib = *subject.library;

    // Bases for which the library carries λ-indexed corners.
    std::set<std::string> indexed_bases;
    {
      std::string base;
      double lp = 0.0;
      double ln = 0.0;
      for (const auto& cell : lib.cells()) {
        if (util::parse_indexed_cell_name(cell.name, base, lp, ln)) indexed_bases.insert(base);
      }
    }

    for (std::size_t i = 0; i < m.instances().size(); ++i) {
      const auto& inst = m.instances()[i];
      const std::string loc = m.name() + ":inst " + inst.name;
      const ResolvedCell r = resolve_cell(lib, inst.cell, IndexRange::kAny);
      if (!r.indexed) {
        if (r.exact && indexed_bases.count(inst.cell) != 0) {
          out.push_back(Diagnostic{rules::kUnannotated, Severity::kWarning, loc,
                                   "instance is unannotated although the library carries aged " +
                                       inst.cell + " corners; it will time as fresh",
                                   "annotate the instance's duty cycles or drop the fresh cell"});
        }
        continue;  // plain name absent from the library entirely -> NL005
      }
      const bool p_ok = r.lambda_p >= 0.0 && r.lambda_p <= 1.0;
      const bool n_ok = r.lambda_n >= 0.0 && r.lambda_n <= 1.0;
      if (!p_ok || !n_ok) {
        out.push_back(Diagnostic{
            rules::kDutyOutOfRange, Severity::kError, loc,
            "duty-cycle index " + lambda_pair(r.lambda_p, r.lambda_n) +
                " is outside [0,1]; a stress duty cycle is a probability",
            "fix the duty-cycle extraction (or the annotation step's quantization)"});
        continue;
      }
      // Entirely unknown bases (no plain cell, no corner of it) are NL005's
      // finding, not a missing corner.
      if (!r.exact && (r.cell != nullptr || indexed_bases.count(r.base) != 0)) {
        out.push_back(Diagnostic{
            rules::kMissingCorner, Severity::kError, loc,
            "no cell " + inst.cell + " in library " + lib.name() + ": corner " +
                lambda_pair(r.lambda_p, r.lambda_n) + " of " + r.base + " was never merged",
            "characterize and merge the missing (λp, λn) corner"});
      }
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> annotation_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<AnnotationRule>());
  return rules;
}

}  // namespace rw::lint
