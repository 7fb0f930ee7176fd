#include "spice/fault.hpp"

#include <cstdlib>

#include "util/number.hpp"
#include "util/strings.hpp"

namespace rw::spice {

namespace {

/// Thread-local context tag; ScopedContext appends " / <tag>" segments.
thread_local std::string t_context;  // NOLINT(runtime/string): thread-local by design

}  // namespace

FaultInjector::FaultInjector() {
  if (const char* spec = std::getenv("RW_FAULT_INJECT"); spec != nullptr && *spec != '\0') {
    arm_from_env(spec);
  }
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::arm_fail_nth(std::uint64_t nth, std::uint64_t times, Action action) {
  std::lock_guard<std::mutex> lock(mutex_);
  use_nth_ = true;
  nth_ = nth;
  needle_.clear();
  times_ = times == 0 ? 1 : times;
  action_ = action;
  observed_.store(0, std::memory_order_relaxed);
  injected_.store(0, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::arm_fail_matching(std::string needle, std::uint64_t times, Action action) {
  std::lock_guard<std::mutex> lock(mutex_);
  use_nth_ = false;
  nth_ = 0;
  needle_ = std::move(needle);
  times_ = times;
  action_ = action;
  observed_.store(0, std::memory_order_relaxed);
  injected_.store(0, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::disarm() { armed_.store(false, std::memory_order_release); }

std::uint64_t FaultInjector::observed_solves() const {
  return observed_.load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::injected_failures() const {
  return injected_.load(std::memory_order_relaxed);
}

FaultInjector::Action FaultInjector::on_solve_attempt(const std::string& context) {
  if (!armed()) return Action::kNone;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!armed()) return Action::kNone;  // disarmed while waiting on the lock
  const std::uint64_t ordinal = observed_.fetch_add(1, std::memory_order_relaxed) + 1;
  bool hit = false;
  if (use_nth_) {
    hit = ordinal >= nth_ && ordinal < nth_ + times_;
  } else if (!needle_.empty()) {
    hit = context.find(needle_) != std::string::npos &&
          (times_ == 0 || injected_.load(std::memory_order_relaxed) < times_);
  }
  if (!hit) return Action::kNone;
  injected_.fetch_add(1, std::memory_order_relaxed);
  return action_;
}

FaultInjector::ScopedContext::ScopedContext(const std::string& tag)
    : previous_size_(t_context.size()) {
  if (!t_context.empty()) t_context += " / ";
  t_context += tag;
}

FaultInjector::ScopedContext::~ScopedContext() { t_context.resize(previous_size_); }

const std::string& FaultInjector::current_context() { return t_context; }

void FaultInjector::arm_from_env(const char* spec) {
  // "key=value;key=value" with keys: mode=fail|nan|stall, nth=N,
  // match=SUBSTR, times=K, stall_ms=M. Malformed pieces are ignored — the
  // drill knob must never be able to crash a production run.
  Action action = Action::kFailConvergence;
  std::uint64_t nth = 0;
  std::uint64_t times = 0;
  std::string needle;
  for (const auto& part : util::split(spec, ";")) {
    const auto eq = part.find('=');
    if (eq == std::string::npos) continue;
    const std::string key{util::trim(part.substr(0, eq))};
    const std::string value{util::trim(part.substr(eq + 1))};
    if (key == "mode") {
      if (value == "nan") action = Action::kNanResidual;
      if (value == "stall") action = Action::kStall;
    } else if (key == "stall_ms") {
      double ms = 0.0;
      if (util::parse_number(value, ms) && ms > 0.0) set_stall_ms(ms);
    } else if (key == "nth") {
      util::parse_number(value, nth);
    } else if (key == "times") {
      util::parse_number(value, times);
    } else if (key == "match") {
      needle = value;
    }
  }
  if (nth > 0) {
    arm_fail_nth(nth, times == 0 ? 1 : times, action);
  } else if (!needle.empty()) {
    arm_fail_matching(needle, times, action);
  }
}

}  // namespace rw::spice
