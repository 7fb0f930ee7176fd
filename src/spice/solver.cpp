#include "spice/solver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <thread>
#include <utility>

#include "flow/cancel.hpp"
#include "spice/fault.hpp"
#include "spice/stats.hpp"
#include "spice/workspace.hpp"
#include "util/number.hpp"
#include "util/strings.hpp"

namespace rw::spice {

namespace {

std::atomic<double>& watchdog_slot() {
  static std::atomic<double> ms{std::max(0.0, util::env_number("RW_SOLVE_WATCHDOG_MS", 0.0))};
  return ms;
}

}  // namespace

double solve_watchdog_ms() { return watchdog_slot().load(std::memory_order_relaxed); }

void set_solve_watchdog_ms(double ms) { watchdog_slot().store(ms, std::memory_order_relaxed); }

RetryPolicy RetryPolicy::from_env() {
  RetryPolicy p;
  if (const int n = util::env_number("RW_CHAR_MAX_RETRIES", -1); n >= 0) p.max_retries = n;
  return p;
}

namespace {

std::string compose_solver_message(const std::string& stage, const std::string& detail,
                                   const std::string& node, double time_ps, int iterations,
                                   int n_unknowns, const std::vector<SolveAttempt>& attempts) {
  std::ostringstream os;
  os << "spice " << stage << " solve failed: " << detail << " [";
  if (!node.empty()) os << "node=" << node << ", ";
  os << "t=" << util::format_fixed(time_ps, 3) << " ps, newton_iters=" << iterations
     << ", unknowns=" << n_unknowns << "]";
  for (const auto& a : attempts) {
    os << "\n  attempt " << a.attempt << " [" << a.settings << "]: " << a.outcome;
  }
  return os.str();
}

}  // namespace

SolverError::SolverError(std::string stage, std::string detail, std::string node, double time_ps,
                         int iterations, int n_unknowns, std::vector<SolveAttempt> attempts)
    : std::runtime_error(compose_solver_message(stage, detail, node, time_ps, iterations,
                                                n_unknowns, attempts)),
      stage_(std::move(stage)),
      detail_(std::move(detail)),
      node_(std::move(node)),
      time_ps_(time_ps),
      iterations_(iterations),
      n_unknowns_(n_unknowns),
      attempts_(std::move(attempts)) {}

namespace {

/// Set by the fault injector for the duration of one transient attempt:
/// every residual evaluation is poisoned with NaN, which the Newton loop
/// must detect and treat as non-convergence (never as success).
thread_local bool t_poison_residuals = false;

/// Damped Newton driver over a cached `SolverWorkspace`. One instance per
/// solve; it borrows the per-thread workspace for the circuit topology and
/// reuses its stamped-system and scratch buffers, so an iteration performs
/// no heap allocation and exactly one analytic stamp + refactorization
/// (instead of the seed solver's n_unknowns+1 finite-difference residual
/// sweeps and from-scratch dense assembly).
class NewtonDriver {
 public:
  NewtonDriver(const Circuit& circuit, const TransientOptions& options)
      : circuit_(circuit), options_(options), ws_(workspace_for(circuit)) {
    for (const auto& src : circuit.sources()) {
      for (const auto& [t, v] : src.waveform.points()) vmax_ = std::max(vmax_, std::fabs(v));
    }
  }

  [[nodiscard]] int n_unknowns() const { return ws_.n_unknowns(); }
  [[nodiscard]] SolverWorkspace& ws() { return ws_; }
  [[nodiscard]] double vmax_v() const { return vmax_; }

  /// Name of the circuit node behind unknown row `u` ("?" when unmapped).
  [[nodiscard]] std::string unknown_node_name(int u) const {
    for (NodeId n = 0; n < circuit_.node_count(); ++n) {
      if (ws_.unknown_index()[static_cast<std::size_t>(n)] == u) return circuit_.node_name(n);
    }
    return "?";
  }

  /// Detail of the most recent `newton` failure (singular matrix, NaN
  /// residual, plain iteration exhaustion). Valid after newton returned
  /// false; NewtonDriver is used single-threaded per solve.
  [[nodiscard]] const std::string& last_failure() const { return last_failure_; }
  /// Node with the worst residual when the last newton failed ("" if n/a).
  [[nodiscard]] const std::string& last_failure_node() const { return last_failure_node_; }

  void scatter(const std::vector<double>& x, double t_ps, double source_scale,
               std::vector<double>& v_full) const {
    ws_.scatter(circuit_, x, t_ps, source_scale, v_full);
  }

  /// Damped Newton solve. `stamp_extra(v_full)` adds the dynamic part of the
  /// residual/Jacobian (capacitors, homotopy caps) on top of the static
  /// stamp; pass a no-op for DC. Returns true on convergence, updating x. On
  /// failure, `last_failure()`/`last_failure_node()` describe what went
  /// wrong (iteration exhaustion, singular Jacobian row, non-finite
  /// residual).
  template <typename StampExtra>
  bool newton(std::vector<double>& x, double t_ps, double source_scale, StampExtra&& stamp_extra,
              int max_iterations) {
    if (ws_.n_unknowns() == 0) return true;
    const auto n = static_cast<std::size_t>(ws_.n_unknowns());
    constexpr double kMaxStep = 0.3;  // volts, Newton damping limit

    last_failure_.clear();
    last_failure_node_.clear();
    for (int iter = 0; iter < max_iterations; ++iter) {
      stats::add_newton_iterations(1);
      ws_.scatter(circuit_, x, t_ps, source_scale, v_full_);
      ws_.begin_stamp();
      ws_.stamp_static(circuit_, v_full_, options_.gmin_ma_per_v);
      stamp_extra(v_full_);
      if (t_poison_residuals) ws_.poison_residual();  // armed fault injection

      int worst = 0;
      const double fmax = ws_.residual_max(worst);
      if (!std::isfinite(fmax)) {
        // A poisoned or overflowed residual must never satisfy the
        // convergence test below (NaN comparisons are all false, which
        // would otherwise leave fmax at 0 and "converge" on garbage).
        record_failure("non-finite residual", worst, t_ps);
        return false;
      }

      try {
        ws_.solve_newton_step(dx_);
      } catch (const SingularRow& s) {
        record_failure("singular matrix at row " + std::to_string(s.row), s.row, t_ps);
        return false;
      }

      // Per-node voltage limiting (as SPICE does): a near-singular direction
      // (e.g. a floating node between off transistors) must not stall the
      // whole update. Also clamp to physical bounds — CMOS nodes cannot
      // leave the rail window, and wandering flattens the exponentials.
      double step_max = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double delta = std::clamp(dx_[i], -kMaxStep, kMaxStep);
        const double next = std::clamp(x[i] + delta, -0.5, vmax_ + 0.5);
        step_max = std::max(step_max, std::fabs(next - x[i]));
        x[i] = next;
      }
      if (!std::isfinite(step_max)) {
        record_failure("non-finite Newton update", worst, t_ps);
        return false;
      }

      if (fmax < options_.tol_i_ma && step_max < options_.tol_v) return true;
      // Iteration count first: getenv must stay off the per-iteration path.
      if (iter > max_iterations - 6 && std::getenv("RW_SPICE_DEBUG") != nullptr) {
        std::fprintf(stderr, "newton iter %d: fmax=%.3e step=%.3e x0=%.4f\n", iter, fmax,
                     step_max, x.empty() ? 0.0 : x[0]);
      }
      if (iter + 1 == max_iterations) {
        record_failure("Newton exhausted " + std::to_string(max_iterations) +
                           " iterations (|f|max=" + std::to_string(fmax) + " mA)",
                       worst, t_ps);
      }
    }
    return false;
  }

 private:
  void record_failure(const std::string& what, int row, double t_ps) {
    last_failure_node_ = unknown_node_name(row);
    last_failure_ = what + " (node " + last_failure_node_ + ", t=" +
                    util::format_fixed(t_ps, 3) + " ps, " + std::to_string(ws_.n_unknowns()) +
                    " unknowns, " + std::to_string(circuit_.mosfets().size()) + " mosfets)";
  }

  const Circuit& circuit_;
  const TransientOptions& options_;
  SolverWorkspace& ws_;
  double vmax_ = 1.2;
  std::string last_failure_;
  std::string last_failure_node_;
  std::vector<double> v_full_;
  std::vector<double> dx_;
};

constexpr auto kNoExtraStamp = [](const std::vector<double>&) {};

/// DC solve with the escalation chain: direct Newton -> source stepping ->
/// pseudo-transient homotopy. `ramp_sources_first` (the retry ladder's
/// source-ramping rung) skips the direct attempt and goes straight to a
/// finer source ramp, which converges on circuits whose direct solve
/// wanders.
std::vector<double> solve_dc(const Circuit& circuit, double t_ps, const TransientOptions& options,
                             bool ramp_sources_first = false) {
  stats::add_dc_solve();
  NewtonDriver sys(circuit, options);
  std::vector<double> x(static_cast<std::size_t>(sys.n_unknowns()), 0.0);
  // Initial guess: half of the largest source magnitude (≈ Vdd/2).
  double vmax = 0.0;
  for (const auto& src : circuit.sources()) {
    vmax = std::max(vmax, std::fabs(src.waveform.value(t_ps)));
  }
  std::fill(x.begin(), x.end(), 0.5 * vmax);

  bool converged = false;
  if (!ramp_sources_first) converged = sys.newton(x, t_ps, 1.0, kNoExtraStamp, 200);
  if (!converged) {
    // Source stepping: ramp supplies to 100%, warm-starting Newton. The
    // ladder's source-ramping rung uses a finer 5% grid.
    const int steps = ramp_sources_first ? 20 : 10;
    std::fill(x.begin(), x.end(), 0.0);
    converged = true;
    for (int step = 1; step <= steps && converged; ++step) {
      converged = sys.newton(x, t_ps, static_cast<double>(step) / steps, kNoExtraStamp, 200);
    }
  }
  if (!converged) {
    // Pseudo-transient homotopy: virtual capacitors on every unknown node,
    // integrated from 0 V with a growing timestep until steady state. Damped
    // Newton converges on each small step even for the feedback structures
    // (XOR trees, latch loops) that defeat the direct solve.
    std::fill(x.begin(), x.end(), 0.0);
    std::vector<double> x_prev = x;
    constexpr double kVirtualCapFf = 10.0;
    double dt = 0.5;  // ps
    converged = false;
    for (int step = 0; step < 400; ++step) {
      const std::vector<double> x_before = x;
      // Note: the stamp reads `x` through the closure as Newton updates it,
      // so the capacitor current uses the trial voltage, as BE requires.
      const auto pt_stamp = [&](const std::vector<double>&) {
        sys.ws().stamp_virtual_caps(x, x_prev, kVirtualCapFf, dt);
      };
      if (!sys.newton(x, t_ps, 1.0, pt_stamp, 60)) {
        x = x_before;
        dt *= 0.5;
        if (dt < 1e-3) break;
        continue;
      }
      double dv = 0.0;
      for (std::size_t i = 0; i < x.size(); ++i) dv = std::max(dv, std::fabs(x[i] - x_prev[i]));
      x_prev = x;
      dt = std::min(dt * 1.6, 100.0);
      if (dv < 1e-7 && step > 3) {
        converged = true;
        break;
      }
    }
    // Final verification with the true static residual.
    if (converged) converged = sys.newton(x, t_ps, 1.0, kNoExtraStamp, 100);
  }
  if (!converged) {
    std::string detail = "Newton failed to converge even with source stepping and homotopy";
    if (!sys.last_failure().empty()) detail += "; last: " + sys.last_failure();
    throw SolverError("dc", detail, sys.last_failure_node(), t_ps, 200, sys.n_unknowns());
  }

  std::vector<double> v_full;
  sys.scatter(x, t_ps, 1.0, v_full);
  return v_full;
}

/// Warm-started DC: polish a seed node-voltage vector with a full-tolerance
/// Newton solve. Returns the polished full solution, or empty if the seed
/// did not converge (caller falls back to the cold escalation chain). The
/// polish budget is deliberately small — a good seed converges in a couple
/// of iterations, and a bad one should fail fast rather than wander.
std::vector<double> polish_dc_seed(const Circuit& circuit, double t_ps,
                                   const TransientOptions& options,
                                   const std::vector<double>& seed) {
  NewtonDriver sys(circuit, options);
  std::vector<double> x(static_cast<std::size_t>(sys.n_unknowns()), 0.0);
  for (NodeId node = 0; node < circuit.node_count(); ++node) {
    const int u = sys.ws().unknown_index()[static_cast<std::size_t>(node)];
    if (u >= 0) x[static_cast<std::size_t>(u)] = seed[static_cast<std::size_t>(node)];
  }
  if (!sys.newton(x, t_ps, 1.0, kNoExtraStamp, 25)) return {};
  std::vector<double> v_full;
  sys.scatter(x, t_ps, 1.0, v_full);
  return v_full;
}

/// RAII poison flag for the NaN-residual injection mode.
struct PoisonGuard {
  explicit PoisonGuard(bool enable) : armed(enable) {
    if (armed) t_poison_residuals = true;
  }
  ~PoisonGuard() {
    if (armed) t_poison_residuals = false;
  }
  PoisonGuard(const PoisonGuard&) = delete;
  PoisonGuard& operator=(const PoisonGuard&) = delete;
  bool armed;
};

/// One transient attempt at fixed options (one rung of the retry ladder).
TransientResult simulate_transient_once(const Circuit& circuit, const TransientOptions& options,
                                        const std::vector<NodeId>& probes,
                                        bool ramp_sources_first) {
  stats::add_transient_attempt();
  NewtonDriver sys(circuit, options);

  // Fault injection hook: inert (one relaxed atomic load) unless armed.
  FaultInjector::Action action = FaultInjector::Action::kNone;
  if (FaultInjector::instance().armed()) {
    action = FaultInjector::instance().on_solve_attempt(FaultInjector::current_context());
  }
  if (action == FaultInjector::Action::kFailConvergence) {
    throw SolverError("transient", "fault injection: forced convergence failure", "", 0.0,
                      options.max_newton, sys.n_unknowns());
  }
  const PoisonGuard poison(action == FaultInjector::Action::kNanResidual);

  // Per-attempt wall-clock watchdog: a hung attempt becomes a rung failure.
  const auto attempt_start = std::chrono::steady_clock::now();
  const double watchdog =
      options.watchdog_ms != 0.0 ? std::max(options.watchdog_ms, 0.0) : solve_watchdog_ms();
  const auto elapsed_ms = [&attempt_start] {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     attempt_start)
        .count();
  };

  if (action == FaultInjector::Action::kStall) {
    // Injected hang: sleep in small slices so the watchdog and cancellation
    // polls stay responsive, exactly as a real stuck solve would be handled.
    const double stall = FaultInjector::instance().stall_ms();
    while (elapsed_ms() < stall) {
      flow::throw_if_cancelled();
      if (watchdog > 0.0 && elapsed_ms() > watchdog) {
        throw SolverError("transient",
                          "watchdog: attempt exceeded " + util::format_fixed(watchdog, 1) +
                              " ms wall-clock (injected stall)",
                          "", 0.0, 0, sys.n_unknowns());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  TransientResult result(probes, circuit.node_count());

  // t=0 operating point: polish the caller's warm-start seed when one is
  // supplied (and not poisoned — a NaN residual would just burn the polish
  // budget), falling back to the cold escalation chain.
  std::vector<double> v_prev_full;
  if (options.initial_state != nullptr && !poison.armed &&
      options.initial_state->size() == static_cast<std::size_t>(circuit.node_count())) {
    v_prev_full = polish_dc_seed(circuit, 0.0, options, *options.initial_state);
    if (v_prev_full.empty()) {
      stats::add_warm_start_miss();
    } else {
      stats::add_warm_start_hit();
    }
  }
  if (v_prev_full.empty()) {
    v_prev_full = solve_dc(circuit, 0.0, options, ramp_sources_first);
  }
  result.record(0.0, v_prev_full);

  // Unknown vector from the DC solution.
  const auto n = static_cast<std::size_t>(sys.n_unknowns());
  std::vector<double> x(n, 0.0);
  for (NodeId node = 0; node < circuit.node_count(); ++node) {
    const int u = sys.ws().unknown_index()[static_cast<std::size_t>(node)];
    if (u >= 0) x[static_cast<std::size_t>(u)] = v_prev_full[static_cast<std::size_t>(node)];
  }

  double t = 0.0;
  double dt = options.dt_initial_ps;
  std::vector<double> v_full;
  std::vector<double> x_try;
  std::vector<double> x_base;  // previous accepted step, for the predictor
  double dt_prev = 0.0;
  while (t < options.t_stop_ps - 1e-9) {
    if (watchdog > 0.0 && elapsed_ms() > watchdog) {
      throw SolverError("transient",
                        "watchdog: attempt exceeded " + util::format_fixed(watchdog, 1) +
                            " ms wall-clock",
                        sys.last_failure_node(), t, 0, sys.n_unknowns());
    }
    // Never step across a source breakpoint; land on it exactly.
    double dt_eff = std::min(dt, options.t_stop_ps - t);
    for (const auto& src : circuit.sources()) {
      if (const auto bp = src.waveform.next_breakpoint(t)) {
        if (*bp - t > 1e-9) dt_eff = std::min(dt_eff, *bp - t);
      }
    }

    const double t_next = t + dt_eff;
    x_try = x;
    // Linear predictor: extrapolate the Newton guess from the previous
    // accepted step. Newton still converges to the same tolerances from any
    // guess — the predictor only cuts how many iterations that takes.
    if (dt_prev > 0.0) {
      const double r = dt_eff / dt_prev;
      for (std::size_t i = 0; i < n; ++i) {
        x_try[i] = std::clamp(x[i] + r * (x[i] - x_base[i]), -0.5, sys.vmax_v() + 0.5);
      }
    }
    const auto cap_stamp = [&](const std::vector<double>& vf) {
      sys.ws().stamp_capacitors(circuit, vf, v_prev_full, dt_eff);
    };
    const bool converged = sys.newton(x_try, t_next, 1.0, cap_stamp, options.max_newton);
    if (!converged) {
      if (dt_eff <= options.dt_min_ps * 1.0001) {
        std::string detail = "Newton failed at minimum timestep dt=" +
                             util::format_fixed(dt_eff, 4) + " ps";
        if (!sys.last_failure().empty()) detail += "; " + sys.last_failure();
        throw SolverError("transient", detail, sys.last_failure_node(), t_next,
                          options.max_newton, sys.n_unknowns());
      }
      dt = std::max(options.dt_min_ps, dt_eff * 0.25);
      continue;
    }

    // Accept the step.
    double dv_max = 0.0;
    for (std::size_t i = 0; i < n; ++i) dv_max = std::max(dv_max, std::fabs(x_try[i] - x[i]));
    x_base = x;
    dt_prev = dt_eff;
    x = x_try;
    sys.scatter(x, t_next, 1.0, v_full);
    v_prev_full = v_full;
    t = t_next;
    result.record(t, v_full);

    // Timestep control: aim for dv_target per step.
    double grow = 2.0;
    if (dv_max > 1e-12) grow = std::clamp(options.dv_target_v / dv_max, 0.4, 2.0);
    dt = std::clamp(dt_eff * grow, options.dt_min_ps, options.dt_max_ps);

    // Settled-tail early exit: once every source is past its final
    // breakpoint and a full dt_max step moved no node by more than 10 nV,
    // the rest of the window is a flat exponential tail orders of magnitude
    // below measurement resolution. Recording the final sample at t_stop
    // yields the same (linearly interpolated) waveform without stepping
    // through it. Purely time-driven — bitwise identical for any thread
    // count, and characterization windows are sized with generous margins
    // past the last output transition.
    if (dv_max < 1e-8 && dt_eff >= options.dt_max_ps * (1.0 - 1e-9)) {
      bool breakpoints_ahead = false;
      for (const auto& src : circuit.sources()) {
        if (src.waveform.next_breakpoint(t)) {
          breakpoints_ahead = true;
          break;
        }
      }
      if (!breakpoints_ahead) {
        if (options.t_stop_ps - t > 1e-9) result.record(options.t_stop_ps, v_full);
        break;
      }
    }
  }
  return result;
}

/// Effective options for one rung of the retry ladder; rung 0 is the
/// caller's options verbatim (fault-free runs are bitwise identical to a
/// ladder-free solver).
struct LadderRung {
  TransientOptions options;
  bool ramp_sources = false;
  std::string settings;
};

LadderRung ladder_rung(const TransientOptions& base, int rung) {
  LadderRung r;
  r.options = base;
  if (rung >= 1) {
    const double shrink = std::pow(base.retry.dt_shrink, rung);
    r.options.dt_initial_ps = base.dt_initial_ps * shrink;
    r.options.dt_min_ps = base.dt_min_ps * shrink;
    r.options.max_newton = base.max_newton * 2;
    // Relaxation rungs run cold: the warm seed already failed to help on
    // rung 0, and the ladder exists to change the numerics, not repeat them.
    r.options.initial_state = nullptr;
  }
  if (rung >= 2) r.options.gmin_ma_per_v = base.gmin_ma_per_v * base.retry.gmin_boost;
  if (rung >= 3 && base.retry.source_ramp) r.ramp_sources = true;
  std::ostringstream os;
  os << "dt_initial=" << util::format_fixed(r.options.dt_initial_ps, 5)
     << "ps dt_min=" << util::format_fixed(r.options.dt_min_ps, 6)
     << "ps gmin=" << r.options.gmin_ma_per_v << "mA/V newton=" << r.options.max_newton
     << (r.ramp_sources ? " source-ramp" : "");
  r.settings = os.str();
  return r;
}

}  // namespace

TransientResult::TransientResult(std::vector<NodeId> probes, int node_count)
    : probes_(std::move(probes)), waveforms_(probes_.size()) {
  final_.assign(static_cast<std::size_t>(node_count), 0.0);
}

const Waveform& TransientResult::waveform(NodeId node) const {
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    if (probes_[i] == node) return waveforms_[i];
  }
  throw std::out_of_range("TransientResult: node was not probed");
}

void TransientResult::record(double t_ps, const std::vector<double>& node_voltages) {
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    waveforms_[i].append(t_ps, node_voltages[static_cast<std::size_t>(probes_[i])]);
  }
  final_ = node_voltages;
}

std::vector<double> dc_operating_point(const Circuit& circuit, double t_ps,
                                       const TransientOptions& options) {
  return solve_dc(circuit, t_ps, options);
}

TransientResult simulate_transient(const Circuit& circuit, const TransientOptions& options,
                                   const std::vector<NodeId>& probes) {
  std::vector<SolveAttempt> history;
  const int rungs = 1 + std::max(0, options.retry.max_retries);
  for (int k = 0; k < rungs; ++k) {
    const LadderRung rung = ladder_rung(options, k);
    try {
      return simulate_transient_once(circuit, rung.options, probes, rung.ramp_sources);
    } catch (const SolverError& e) {
      history.push_back(SolveAttempt{k, rung.settings, e.detail()});
      if (k + 1 == rungs) {
        throw SolverError("transient",
                          "retry ladder exhausted after " + std::to_string(rungs) +
                              " attempt(s); last failure: " + e.detail(),
                          e.node(), e.time_ps(), e.iterations(), e.n_unknowns(),
                          std::move(history));
      }
    }
  }
  // Unreachable: the loop either returns or throws on its last rung.
  throw SolverError("transient", "retry ladder logic error", "", 0.0, 0, 0);
}

}  // namespace rw::spice
