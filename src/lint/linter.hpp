#pragma once

/// \file linter.hpp
/// The rule engine: a `Linter` owns an ordered set of pluggable `Rule`s and
/// runs them over a `LintSubject` (netlist and/or libraries). Independent
/// rules execute concurrently on `util::ThreadPool::shared()`; each rule
/// writes into its own pre-sized slot and results are concatenated in
/// registration order, so the report is identical for any thread count.
///
/// `lint_or_throw` is the flow pre-flight hook: it refuses bad inputs with a
/// `LintError` carrying the full diagnostic list instead of letting them die
/// deep inside STA or characterization.

#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "charlib/opc.hpp"
#include "liberty/library.hpp"
#include "lint/diagnostic.hpp"
#include "netlist/netlist.hpp"
#include "stress/activity_bounds.hpp"
#include "stress/analyzer.hpp"
#include "stress/network.hpp"

namespace rw::sta {
struct ProveSummary;  // sta/interval_sta.hpp; kept opaque to the rule engine
}  // namespace rw::sta

namespace rw::lint {

/// Measured per-net toggle rates — the AC001 oracle input. Rates come from a
/// post-warm-up simulation window (`ActivityCollector::toggle_rate`).
struct ActivityMeasurement {
  /// (net name, measured toggles/cycle); names absent from the module are
  /// ignored, as are clock-fed nets (cycle sampling cannot observe
  /// intra-cycle edges).
  std::vector<std::pair<std::string, double>> toggle_rates;
  /// Slack added on both sides of the proven interval before comparing
  /// (absorbs finite-window sampling noise when the model is empirical).
  double slack = 0.0;
};

class SubjectAnalysis;

/// What a lint run looks at. Any pointer may be null; rules skip the parts
/// they need that are absent. Pointees must outlive the `run()` call.
struct LintSubject {
  const netlist::Module* module = nullptr;     ///< netlist + annotation rules
  const liberty::Library* library = nullptr;   ///< resolves cells; library rules
  const liberty::Library* fresh = nullptr;     ///< baseline for aged-vs-fresh checks
  const charlib::OpcGrid* expected_grid = nullptr;  ///< NLDM axes must match when set
  double lambda_step = 0.1;  ///< λ quantization grid for annotation checks
  /// Input model for the SP (static-stress) rules; null runs them with the
  /// default all-[0,1] model (SP003 then stays silent by construction).
  const stress::AnalyzeOptions* stress = nullptr;
  /// Input model for the AC (switching-activity) rules; null runs them on
  /// the default model, with the probability half taken from `stress` when
  /// that is set (AC002/AC003 then stay silent on live logic by
  /// construction).
  const stress::ActivityOptions* activity = nullptr;
  /// Measured toggle rates for the AC001 oracle check; null keeps it silent.
  const ActivityMeasurement* measured_activity = nullptr;
  /// AC003 fires when a net's proven toggle *lower* bound reaches this
  /// (toggles/cycle): every admissible workload stresses the net that hard.
  double activity_hotspot_threshold = 1.0;
  /// Completed interval-STA run for the PV (certified-proof) rules; null
  /// keeps them silent.
  const sta::ProveSummary* prove = nullptr;
  /// Characterization disk-cache root for the SV (serve-hygiene) rules;
  /// empty keeps them silent.
  std::string cache_dir;
  /// The stress/activity analysis the SP and AC rules share. Null: each
  /// `Linter::run` makes its own. Set: the caller owns it, and it keeps what
  /// the run proved for the caller to reuse.
  SubjectAnalysis* analysis = nullptr;
};

/// What the SP and AC rules of one lint run share: one `analyzable()`
/// verdict, one `stress::NetworkModel` and one probability fixed point per
/// input model, each built on first use. The AC rule reuses the SP rule's
/// fixed point whenever their input models agree, which they do unless the
/// subject declares an `activity` model of its own. Rules run concurrently;
/// one builds a part while the others wait for it.
///
/// An analysis serves one subject: every call passes the same module,
/// library and input models, and the module and library must outlive it.
class SubjectAnalysis {
 public:
  SubjectAnalysis() = default;
  SubjectAnalysis(const SubjectAnalysis&) = delete;
  SubjectAnalysis& operator=(const SubjectAnalysis&) = delete;

  /// Takes over the bounds `proven` holds (not its verdict or model) for a
  /// subject whose module is a copy of proven's with cells renamed to their
  /// λ-indexed corners, as `netlist::annotate_with_duty_cycles` does. A
  /// corner shares its base cell's pins and Boolean function, and the
  /// bounds depend on nothing else, so they hold index for index. A bound
  /// under another input model than the subject's is still proven afresh.
  void adopt_bounds(const SubjectAnalysis& proven);

  /// `analyzable(subject)` (rules.hpp), decided once.
  [[nodiscard]] bool analyzable(const LintSubject& subject);
  /// The probability fixed point under the SP input model (`subject.stress`,
  /// else the default); null when the subject is not analyzable or the
  /// analysis refuses the module (its findings belong to the NL rules).
  [[nodiscard]] std::shared_ptr<const stress::StressReport> stress(const LintSubject& subject);
  /// The activity analysis under the AC input model (`subject.activity`,
  /// else the default with the probability half from `subject.stress`);
  /// null where `stress` would be.
  [[nodiscard]] std::shared_ptr<const stress::ActivityReport> activity(
      const LintSubject& subject);

  /// What `stress::analyze` returns for the subject (which names a module
  /// and a library) under the SP input model: the shared fixed point when
  /// there is one, else that call itself, which proves what the NL rules
  /// refused (an undriven net reads as ⊤) or throws its error. How a flow or
  /// tool reads the bounds its lint proved.
  [[nodiscard]] stress::StressReport stress_report(const LintSubject& subject);
  /// The same for `stress::analyze_activity` under the AC input model.
  [[nodiscard]] stress::ActivityReport activity_report(const LintSubject& subject);

 private:
  bool analyzable_locked(const LintSubject& subject);
  const stress::NetworkModel* model_locked(const LintSubject& subject);
  std::shared_ptr<const stress::StressReport> probability_locked(
      const LintSubject& subject, const stress::AnalyzeOptions& options);

  mutable std::mutex mutex_;
  std::optional<bool> analyzable_;
  std::optional<stress::NetworkModel> model_;
  bool model_refused_ = false;
  /// Results per input model; a null report records a refusal.
  std::vector<std::pair<stress::AnalyzeOptions, std::shared_ptr<const stress::StressReport>>>
      probability_;
  std::vector<std::pair<stress::ActivityOptions, std::shared_ptr<const stress::ActivityReport>>>
      activity_;
};

/// One design rule. Implementations must be state-free (`run` is const and
/// may be invoked concurrently with other rules).
class Rule {
 public:
  virtual ~Rule() = default;
  [[nodiscard]] virtual std::string_view id() const = 0;
  [[nodiscard]] virtual std::string_view description() const = 0;
  virtual void run(const LintSubject& subject, std::vector<Diagnostic>& out) const = 0;
};

/// Rule-set factories (registration order == report order).
std::vector<std::unique_ptr<Rule>> netlist_rules();     ///< NL001..NL006
std::vector<std::unique_ptr<Rule>> library_rules();     ///< LB001..LB007
std::vector<std::unique_ptr<Rule>> annotation_rules();  ///< AN001..AN003
std::vector<std::unique_ptr<Rule>> stress_rules();      ///< SP001..SP003
std::vector<std::unique_ptr<Rule>> activity_rules();    ///< AC001..AC003
std::vector<std::unique_ptr<Rule>> prove_rules();       ///< PV001..PV003
std::vector<std::unique_ptr<Rule>> serve_rules();       ///< SV001..SV002

class Linter {
 public:
  Linter() = default;

  void add_rule(std::unique_ptr<Rule> rule);
  void add_rules(std::vector<std::unique_ptr<Rule>> rules);

  /// Everything: netlist + library + annotation rules.
  static Linter all_rules();
  /// Netlist + annotation rules — the pre-flight set for flows whose library
  /// is generated internally.
  static Linter netlist_linter();
  /// Library rules only — the pre-flight set for caller-provided libraries.
  static Linter library_linter();

  [[nodiscard]] const std::vector<std::unique_ptr<Rule>>& rules() const { return rules_; }

  /// Runs every rule concurrently; diagnostics are returned in
  /// rule-registration order, deterministically.
  [[nodiscard]] std::vector<Diagnostic> run(const LintSubject& subject) const;

 private:
  std::vector<std::unique_ptr<Rule>> rules_;
};

/// Thrown by `lint_or_throw`; `what()` is the full formatted report.
class LintError : public std::runtime_error {
 public:
  explicit LintError(std::vector<Diagnostic> diagnostics);
  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

 private:
  std::vector<Diagnostic> diagnostics_;
};

/// Runs `linter` over `subject` and throws `LintError` when any diagnostic
/// reaches `fail_at`. Returns the (possibly non-empty) list otherwise, so
/// callers can still surface warnings.
std::vector<Diagnostic> lint_or_throw(const Linter& linter, const LintSubject& subject,
                                      Severity fail_at = Severity::kError);

/// Minimum severity flow pre-flights *print* (they still fail on errors):
/// parsed from the `RW_LINT_MIN_SEVERITY` environment variable
/// ("info" | "warning" | "error"); defaults to kWarning. Benches set
/// `RW_LINT_MIN_SEVERITY=error` to keep expected warnings off stderr.
Severity min_report_severity();

/// Prints `format()`ed diagnostics at/above `min_report_severity()` to
/// stderr. Returns the number of lines printed.
std::size_t report_diagnostics(const std::vector<Diagnostic>& diagnostics);

}  // namespace rw::lint
