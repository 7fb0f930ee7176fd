#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "lint/rules.hpp"
#include "stress/activity_bounds.hpp"
#include "util/strings.hpp"

namespace rw::lint {

namespace {

/// AC001 / AC002 / AC003 from one switching-activity analysis pass.
///
/// Mirrors the SP rule's philosophy: the analysis proves workload-
/// independent toggle bounds, so a measured rate outside them (AC001) is a
/// pipeline bug, a proven-quiet net (AC002) is a rejuvenation/clock-gating
/// candidate, and a proven-hot net (AC003) is an EM/HCI risk no workload can
/// avoid. Stays silent on structurally broken modules — those belong to the
/// NL/AN rules, and the analysis could not run soundly on them anyway.
class ActivityRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "netlist.activity"; }
  [[nodiscard]] std::string_view description() const override {
    return "measured and proven switching activity agree; quiet nets and hotspots reported";
  }
  void run(const LintSubject& subject, std::vector<Diagnostic>& out) const override {
    // Null for structural problems: those are other rules' findings.
    const std::shared_ptr<const stress::ActivityReport> proven =
        subject.analysis->activity(subject);
    if (proven == nullptr) return;
    const stress::ActivityReport& report = *proven;
    const netlist::Module& m = *subject.module;
    constexpr double kEps = 1e-12;

    // AC001 — a measured toggle rate that escapes the proven bounds. Clock-
    // fed nets are skipped: their toggles are intra-cycle and the sampled
    // measurement convention cannot observe them.
    if (subject.measured_activity != nullptr) {
      for (const auto& [name, rate] : subject.measured_activity->toggle_rates) {
        const netlist::NetId id = m.find_net(name);
        if (id == netlist::kNoNet) continue;
        const auto net = static_cast<std::size_t>(id);
        if (report.clock_fed[net] != 0) continue;
        const stress::Interval& d = report.density[net];
        const double slack = subject.measured_activity->slack + kEps;
        if (rate >= d.lo - slack && rate <= d.hi + slack) continue;
        out.push_back(Diagnostic{
            rules::kToggleOutsideBounds, Severity::kError, m.name() + ":net " + name,
            "measured toggle rate " + util::format_fixed(rate, 6) +
                " escapes the proven activity bound " + d.str(),
            "the measurement contradicts a workload-independent bound; check "
            "the warm-up window, the declared input model, and the sampling "
            "convention"});
      }
    }

    // AC002 — driven nets proven to never toggle. Proven-*constant* nets are
    // SP002's finding; this advisory covers the remainder (e.g. a frozen but
    // unknown value), the rejuvenation/clock-gating candidates.
    for (std::size_t net = 0; net < report.density.size(); ++net) {
      const auto id = static_cast<netlist::NetId>(net);
      if (m.driver(id) < 0 || report.clock_fed[net] != 0) continue;
      if (report.density[net].hi > 1e-9) continue;
      if (report.probability.net[net].is_constant()) continue;
      out.push_back(Diagnostic{
          rules::kProvenQuiet, Severity::kInfo, m.name() + ":net " + m.net_name(id),
          "net is proven to never toggle under the declared input model",
          "a rejuvenation/clock-gating candidate — or dead logic worth removing"});
    }

    // AC003 — nets whose toggle *lower* bound clears the hotspot threshold:
    // every admissible workload keeps them switching. Blame the driver's
    // most active input pin so the finding is actionable.
    for (std::size_t net = 0; net < report.density.size(); ++net) {
      const auto id = static_cast<netlist::NetId>(net);
      const int drv = m.driver(id);
      if (drv < 0) continue;
      const stress::Interval& d = report.density[net];
      if (d.lo < subject.activity_hotspot_threshold - kEps) continue;
      const auto& inst = m.instances()[static_cast<std::size_t>(drv)];
      std::string blame = "no fanin";
      double blame_hi = -1.0;
      for (const netlist::NetId f : inst.fanin) {
        if (f == netlist::kNoNet) continue;
        const stress::Interval& fd = report.density[static_cast<std::size_t>(f)];
        if (fd.hi > blame_hi) {
          blame_hi = fd.hi;
          blame = "pin net " + m.net_name(f) + " toggling in " + fd.str();
        }
      }
      out.push_back(Diagnostic{
          rules::kActivityHotspot, Severity::kWarning, m.name() + ":net " + m.net_name(id),
          "proven toggle lower bound " + util::format_fixed(d.lo, 6) +
              " exceeds the hotspot threshold " +
              util::format_fixed(subject.activity_hotspot_threshold, 6) +
              " on instance " + inst.name + " (blame: " + blame + ")",
          "every admissible workload stresses this net (EM/HCI risk); resize "
          "or restructure the driver, or relax the input model"});
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> activity_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<ActivityRule>());
  return rules;
}

}  // namespace rw::lint
