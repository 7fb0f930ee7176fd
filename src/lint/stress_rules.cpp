#include <memory>
#include <string>
#include <vector>

#include "aging/scenario.hpp"
#include "lint/rules.hpp"
#include "stress/analyzer.hpp"
#include "util/strings.hpp"

namespace rw::lint {

namespace {

/// SP001 / SP002 / SP003 from one static duty-cycle analysis pass.
///
/// The rule is a *cross-check*: the stress analyzer proves workload-
/// independent bounds, and any artifact that contradicts them — a simulated
/// annotation outside the proven interval, logic that can never toggle —
/// indicates a bug upstream (simulator warm-up, duty-cycle extraction,
/// quantization, or the RTL itself). It deliberately stays silent on
/// structurally broken modules: cycles, unknown cells, arity mismatches and
/// out-of-range λ indices belong to NL001/NL005/NL006/AN001, and the
/// analysis could not run soundly on top of them anyway.
class StressRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "netlist.stress"; }
  [[nodiscard]] std::string_view description() const override {
    return "annotations and net activity respect statically proven duty-cycle bounds";
  }
  void run(const LintSubject& subject, std::vector<Diagnostic>& out) const override {
    // Null for structural problems: those are other rules' findings.
    const std::shared_ptr<const stress::StressReport> proven = subject.analysis->stress(subject);
    if (proven == nullptr) return;
    const stress::StressReport& report = *proven;
    const netlist::Module& m = *subject.module;
    const liberty::Library& lib = *subject.library;
    const stress::AnalyzeOptions options =
        subject.stress != nullptr ? *subject.stress : stress::AnalyzeOptions{};

    // SP001 — a simulated/annotated λ index that escapes the proven bounds.
    // Quantization is monotone, so any honest annotation q = quantize(λ) with
    // λ ∈ [lo, hi] satisfies quantize(lo) ≤ q ≤ quantize(hi).
    const double step = subject.lambda_step;
    for (std::size_t i = 0; i < m.instances().size(); ++i) {
      const auto& inst = m.instances()[i];
      const ResolvedCell r = resolve_cell(lib, inst.cell, IndexRange::kAny);
      if (!r.indexed) continue;
      const stress::InstanceBounds& b = report.instances[i];
      const auto check = [&](const char* which, double q, const stress::Interval& bound) {
        const double qlo = aging::quantize_lambda(bound.lo, step);
        const double qhi = aging::quantize_lambda(bound.hi, step);
        // The annotation is re-parsed from the cell-name suffix while the
        // bound is quantized arithmetically; a grid-relative epsilon absorbs
        // the representation gap (0.30 parsed vs 3 * 0.1 computed).
        const double eps = step * 1e-6;
        if (q >= qlo - eps && q <= qhi + eps) return;
        out.push_back(Diagnostic{
            rules::kLambdaOutsideBounds, Severity::kError, m.name() + ":inst " + inst.name,
            std::string("annotated ") + which + " = " + util::format_lambda(q) +
                " escapes the proven bound " + bound.str() + " (quantized [" +
                util::format_lambda(qlo) + ", " + util::format_lambda(qhi) + "])",
            "the annotation contradicts a workload-independent bound; check the "
            "simulator warm-up, duty-cycle extraction, and quantization"});
      };
      check("λn", r.lambda_n, b.lambda_n);
      check("λp", r.lambda_p, b.lambda_p);
    }

    // SP002 — nets proven constant under the declared input model. With the
    // default all-[0,1] model this only fires for genuinely dead logic.
    for (std::size_t net = 0; net < report.net.size(); ++net) {
      const stress::Interval& v = report.net[net];
      if (!v.is_constant()) continue;
      const auto id = static_cast<netlist::NetId>(net);
      if (m.driver(id) < 0) continue;  // a declared-constant PI is an assumption, not a finding
      out.push_back(Diagnostic{
          rules::kProvenConstant, Severity::kWarning,
          m.name() + ":net " + m.net_name(id),
          "net is proven stuck at " + std::string(v.lo == 0.0 ? "0" : "1") +
              " for every workload admitted by the input model",
          "remove the stuck logic, or widen the primary-input interval if it "
          "should toggle"});
    }

    // SP003 — the caller declared a non-trivial input model, yet widening
    // left an instance with the vacuous [0,1] bound. Advisory only.
    const bool declared = [&] {
      if (subject.stress == nullptr) return false;
      if (options.default_input != stress::Interval::full()) return true;
      for (const auto& [name, v] : options.input_intervals) {
        (void)name;
        if (v != stress::Interval::full()) return true;
      }
      return false;
    }();
    if (declared) {
      for (std::size_t i = 0; i < m.instances().size(); ++i) {
        const stress::InstanceBounds& b = report.instances[i];
        if (b.lambda_n != stress::Interval::full()) continue;
        out.push_back(Diagnostic{
            rules::kVacuousBound, Severity::kInfo,
            m.name() + ":inst " + m.instances()[i].name,
            "static λ bound is the vacuous [0,1] despite declared input intervals",
            "reconvergent-fanout widening discarded the information; tighten or "
            "decorrelate the inputs feeding this cone"});
      }
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> stress_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<StressRule>());
  return rules;
}

}  // namespace rw::lint
