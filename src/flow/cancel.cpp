#include "flow/cancel.hpp"

#include <chrono>
#include <csignal>

#include "util/number.hpp"

namespace rw::flow {

namespace {

/// Set from the async signal handler (the only async-signal-safe thing it
/// can do); the next `cancelled()` poll on any thread promotes it into the
/// token with a proper reason string.
volatile std::sig_atomic_t g_signal_seen = 0;

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

extern "C" void on_cancel_signal(int sig) { g_signal_seen = sig; }

}  // namespace

CancelledError::CancelledError(std::string reason)
    : std::runtime_error("cancelled: " + reason), reason_(std::move(reason)) {}

void CancelToken::request(const std::string& reason) {
  int expected = 0;
  if (reason_state_.compare_exchange_strong(expected, 1, std::memory_order_acq_rel)) {
    reason_ = reason;
    reason_state_.store(2, std::memory_order_release);
  }
  flag_.store(true, std::memory_order_release);
}

void CancelToken::set_deadline_after_ms(double ms) {
  if (ms <= 0.0) {
    deadline_ns_.store(0, std::memory_order_relaxed);
    return;
  }
  deadline_ns_.store(steady_now_ns() + static_cast<std::int64_t>(ms * 1e6),
                     std::memory_order_relaxed);
}

void CancelToken::clear() {
  flag_.store(false, std::memory_order_relaxed);
  deadline_ns_.store(0, std::memory_order_relaxed);
  reason_state_.store(0, std::memory_order_relaxed);
  reason_.clear();
  g_signal_seen = 0;
}

bool CancelToken::cancelled() const {
  if (flag_.load(std::memory_order_acquire)) return true;
  if (g_signal_seen != 0) {
    const int sig = g_signal_seen;
    // Promote the raw signal flag into the token (handler context cannot).
    const_cast<CancelToken*>(this)->request(
        sig == SIGINT ? "signal SIGINT" : sig == SIGTERM ? "signal SIGTERM"
                                                         : "signal " + std::to_string(sig));
    return true;
  }
  const std::int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  if (deadline != 0 && steady_now_ns() >= deadline) {
    const_cast<CancelToken*>(this)->request("deadline (RW_DEADLINE_MS) exceeded");
    return true;
  }
  return false;
}

void CancelToken::throw_if_cancelled() const {
  if (cancelled()) throw CancelledError(reason());
}

std::string CancelToken::reason() const {
  if (reason_state_.load(std::memory_order_acquire) == 2) return reason_;
  return cancelled() ? "cancelled" : "";
}

CancelToken& cancel_token() {
  static CancelToken token;
  return token;
}

double install_deadline_from_env() {
  const double ms = util::env_number("RW_DEADLINE_MS", 0.0);
  if (ms <= 0.0) return 0.0;
  cancel_token().set_deadline_after_ms(ms);
  return ms;
}

void install_signal_handlers() {
  std::signal(SIGINT, on_cancel_signal);
  std::signal(SIGTERM, on_cancel_signal);
  // Every CLI can end up writing to a pipe or socket whose reader died (a
  // pager, a vanished rwclient); that must surface as an EPIPE write error,
  // never as a SIGPIPE process kill.
  std::signal(SIGPIPE, SIG_IGN);
}

void throw_if_cancelled() { cancel_token().throw_if_cancelled(); }

}  // namespace rw::flow
