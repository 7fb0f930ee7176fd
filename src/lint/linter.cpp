#include "lint/linter.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "lint/rules.hpp"
#include "util/thread_pool.hpp"

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

}  // namespace

void SubjectAnalysis::adopt_bounds(const SubjectAnalysis& proven) {
  const std::scoped_lock lock(mutex_, proven.mutex_);
  probability_ = proven.probability_;
  activity_ = proven.activity_;
}

bool SubjectAnalysis::analyzable(const LintSubject& subject) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return analyzable_locked(subject);
}

bool SubjectAnalysis::analyzable_locked(const LintSubject& subject) {
  if (!analyzable_) analyzable_ = lint::analyzable(subject);
  return *analyzable_;
}

const stress::NetworkModel* SubjectAnalysis::model_locked(const LintSubject& subject) {
  if (!model_ && !model_refused_) {
    try {
      model_.emplace(stress::NetworkModel::build(*subject.module, *subject.library));
    } catch (const std::exception&) {
      model_refused_ = true;
    }
  }
  return model_ ? &*model_ : nullptr;
}

std::shared_ptr<const stress::StressReport> SubjectAnalysis::probability_locked(
    const LintSubject& subject, const stress::AnalyzeOptions& options) {
  for (const auto& [model_options, report] : probability_) {
    if (model_options == options) return report;
  }
  std::shared_ptr<const stress::StressReport> report;
  if (const stress::NetworkModel* model = model_locked(subject)) {
    try {
      report = std::make_shared<const stress::StressReport>(stress::analyze_network(*model, options));
    } catch (const std::exception&) {
    }
  }
  probability_.emplace_back(options, report);
  return report;
}

std::shared_ptr<const stress::StressReport> SubjectAnalysis::stress(const LintSubject& subject) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!analyzable_locked(subject)) return nullptr;
  return probability_locked(subject, stress_options(subject));
}

std::shared_ptr<const stress::ActivityReport> SubjectAnalysis::activity(
    const LintSubject& subject) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!analyzable_locked(subject)) return nullptr;
  stress::ActivityOptions options = activity_options(subject);
  for (const auto& [model_options, report] : activity_) {
    if (model_options == options) return report;
  }
  const std::shared_ptr<const stress::StressReport> probability =
      probability_locked(subject, options.probability);
  const stress::NetworkModel* model = probability != nullptr ? model_locked(subject) : nullptr;
  std::shared_ptr<const stress::ActivityReport> report;
  if (model != nullptr) {
    try {
      report = std::make_shared<const stress::ActivityReport>(
          stress::analyze_network_activity(*model, options, *probability));
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
  // One slot per rule: workers never share containers, and concatenating the
  // slots in registration order makes the report thread-count independent.
  std::vector<std::vector<Diagnostic>> slots(rules_.size());
  util::ThreadPool::shared().parallel_for(rules_.size(),
                                          [&](std::size_t i) { rules_[i]->run(bound, slots[i]); });
  std::vector<Diagnostic> out;
  for (auto& slot : slots) {
    for (auto& d : slot) out.push_back(std::move(d));
  }
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
