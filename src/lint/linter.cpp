#include "lint/linter.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "lint/rules.hpp"

namespace rw::lint {

void Linter::add_rule(std::unique_ptr<Rule> rule) { rules_.push_back(std::move(rule)); }

void Linter::add_rules(std::vector<std::unique_ptr<Rule>> rules) {
  for (auto& r : rules) rules_.push_back(std::move(r));
}

Linter Linter::all_rules() {
  Linter linter;
  linter.add_rules(netlist_rules());
  linter.add_rules(library_rules());
  linter.add_rules(annotation_rules());
  linter.add_rules(stress_rules());
  linter.add_rules(activity_rules());
  linter.add_rules(prove_rules());
  linter.add_rules(serve_rules());
  return linter;
}

Linter Linter::netlist_linter() {
  Linter linter;
  linter.add_rules(netlist_rules());
  linter.add_rules(annotation_rules());
  linter.add_rules(stress_rules());
  linter.add_rules(activity_rules());
  return linter;
}

Linter Linter::library_linter() {
  Linter linter;
  linter.add_rules(library_rules());
  return linter;
}

namespace {

/// The SP rules' input model.
stress::AnalyzeOptions stress_options(const LintSubject& subject) {
  return subject.stress != nullptr ? *subject.stress : stress::AnalyzeOptions{};
}

/// The AC rules' input model.
stress::ActivityOptions activity_options(const LintSubject& subject) {
  stress::ActivityOptions options;
  if (subject.activity != nullptr) {
    options = *subject.activity;
  } else if (subject.stress != nullptr) {
    options.probability = *subject.stress;
  }
  return options;
}

/// Every instance resolves to a library cell of matching arity whose λ
/// index, if any, lies in [0,1].
bool instances_resolve(const LintSubject& subject) {
  for (const auto& inst : subject.module->instances()) {
    const ResolvedCell r = resolve_cell(*subject.library, inst.cell, IndexRange::kAny);
    if (r.cell == nullptr) return false;
    if (inst.fanin.size() != static_cast<std::size_t>(r.cell->n_inputs())) return false;
    if (r.indexed && (r.lambda_p < 0.0 || r.lambda_p > 1.0 || r.lambda_n < 0.0 ||
                      r.lambda_n > 1.0)) {
      return false;
    }
  }
  return true;
}

}  // namespace

void SubjectAnalysis::adopt_bounds(const SubjectAnalysis& proven) {
  probability_ = proven.probability_;
  activity_ = proven.activity_;
}

const std::vector<Diagnostic>& SubjectAnalysis::check(const LintSubject& subject) {
  if (!check_) check_ = subject.module->check();
  return *check_;
}

bool SubjectAnalysis::analyzable(const LintSubject& subject) {
  if (!analyzable_) {
    analyzable_ = subject.module != nullptr && subject.library != nullptr &&
                  check(subject).empty() && instances_resolve(subject);
  }
  return *analyzable_;
}

const stress::NetworkModel* SubjectAnalysis::model(const LintSubject& subject) {
  if (!model_ && !model_refused_) {
    try {
      model_.emplace(stress::NetworkModel::build(*subject.module, *subject.library));
    } catch (const std::exception&) {
      model_refused_ = true;
    }
  }
  return model_ ? &*model_ : nullptr;
}

std::shared_ptr<const stress::StressReport> SubjectAnalysis::probability(
    const LintSubject& subject, const stress::AnalyzeOptions& options) {
  for (const auto& [model_options, report] : probability_) {
    if (model_options == options) return report;
  }
  std::shared_ptr<const stress::StressReport> report;
  if (const stress::NetworkModel* network = model(subject)) {
    try {
      report =
          std::make_shared<const stress::StressReport>(stress::analyze_network(*network, options));
    } catch (const std::exception&) {
    }
  }
  probability_.emplace_back(options, report);
  return report;
}

std::shared_ptr<const stress::StressReport> SubjectAnalysis::stress(const LintSubject& subject) {
  if (!analyzable(subject)) return nullptr;
  return probability(subject, stress_options(subject));
}

std::shared_ptr<const stress::ActivityReport> SubjectAnalysis::activity(
    const LintSubject& subject) {
  if (!analyzable(subject)) return nullptr;
  stress::ActivityOptions options = activity_options(subject);
  for (const auto& [model_options, report] : activity_) {
    if (model_options == options) return report;
  }
  const std::shared_ptr<const stress::StressReport> fixed_point =
      probability(subject, options.probability);
  const stress::NetworkModel* network = fixed_point != nullptr ? model(subject) : nullptr;
  std::shared_ptr<const stress::ActivityReport> report;
  if (network != nullptr) {
    try {
      report = std::make_shared<const stress::ActivityReport>(
          stress::analyze_network_activity(*network, options, *fixed_point));
    } catch (const std::exception&) {
    }
  }
  activity_.emplace_back(std::move(options), report);
  return report;
}

stress::StressReport SubjectAnalysis::stress_report(const LintSubject& subject) {
  if (const auto proven = stress(subject)) return *proven;
  return stress::analyze(*subject.module, *subject.library, stress_options(subject));
}

stress::ActivityReport SubjectAnalysis::activity_report(const LintSubject& subject) {
  if (const auto proven = activity(subject)) return *proven;
  return stress::analyze_activity(*subject.module, *subject.library, activity_options(subject));
}

std::vector<Diagnostic> Linter::run(const LintSubject& subject) const {
  SubjectAnalysis own;
  LintSubject bound = subject;
  if (bound.analysis == nullptr) bound.analysis = &own;
  std::vector<Diagnostic> out;
  for (const auto& rule : rules_) rule->run(bound, out);
  return out;
}

LintError::LintError(std::vector<Diagnostic> diagnostics)
    : std::runtime_error("lint failed:\n" + format_report(diagnostics)),
      diagnostics_(std::move(diagnostics)) {}

std::vector<Diagnostic> lint_or_throw(const Linter& linter, const LintSubject& subject,
                                      Severity fail_at) {
  std::vector<Diagnostic> diagnostics = linter.run(subject);
  if (!diagnostics.empty() && worst_severity(diagnostics) >= fail_at) {
    throw LintError(std::move(diagnostics));
  }
  return diagnostics;
}

Severity min_report_severity() {
  const char* env = std::getenv("RW_LINT_MIN_SEVERITY");
  if (env == nullptr) return Severity::kWarning;
  if (std::strcmp(env, "info") == 0) return Severity::kInfo;
  if (std::strcmp(env, "error") == 0) return Severity::kError;
  return Severity::kWarning;
}

std::size_t report_diagnostics(const std::vector<Diagnostic>& diagnostics) {
  const Severity floor = min_report_severity();
  std::size_t printed = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity < floor) continue;
    std::fprintf(stderr, "%s\n", d.format().c_str());
    ++printed;
  }
  return printed;
}

}  // namespace rw::lint
