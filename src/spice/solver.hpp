#pragma once

/// \file solver.hpp
/// Transient circuit solver: nodal analysis with ideal-source node
/// elimination, backward-Euler integration, damped Newton iteration with a
/// numerically assembled Jacobian, and local-truncation-style timestep
/// control based on the per-step voltage change. Small dense systems (a
/// standard cell has only a handful of non-sourced nodes) are solved by LU
/// with partial pivoting.
///
/// Failure handling: every non-convergence surfaces as a structured
/// `SolverError` (failing node, simulation time, iteration budget, circuit
/// size, attempt history). `simulate_transient` applies a convergence retry
/// ladder controlled by `TransientOptions::retry` — on Newton failure the
/// transient is re-run with progressively relaxed settings (smaller initial
/// timestep, gmin stepping, source ramping) before giving up, so a single
/// hard OPC point cannot abort an hours-long characterization campaign.
/// Rung 0 runs with the caller's exact options, so fault-free results are
/// bitwise identical to a ladder-free solver.

#include <stdexcept>
#include <string>
#include <vector>

#include "spice/netlist.hpp"
#include "spice/waveform.hpp"

namespace rw::spice {

/// Convergence retry ladder. Rung 0 is always the caller's own options;
/// rungs 1..max_retries relax them progressively:
///   rung 1: dt_initial/dt_min shrunk by `dt_shrink`, doubled Newton budget;
///   rung 2: additionally gmin stepping (gmin raised by `gmin_boost`);
///   rung 3+: additionally source ramping for the initial operating point.
struct RetryPolicy {
  int max_retries = 3;       ///< extra attempts after the first failure
  double dt_shrink = 0.1;    ///< timestep scale per relaxation rung
  double gmin_boost = 1e3;   ///< gmin multiplier for the gmin-stepping rung
  bool source_ramp = true;   ///< enable the source-ramping rung

  /// `max_retries` from $RW_CHAR_MAX_RETRIES when set (>= 0), else 3.
  static RetryPolicy from_env();
};

struct TransientOptions {
  double t_stop_ps = 1000.0;
  double dt_initial_ps = 0.1;
  double dt_min_ps = 0.01;
  double dt_max_ps = 5.0;
  /// Timestep controller targets this max node-voltage change per step.
  double dv_target_v = 0.04;
  int max_newton = 30;
  double tol_v = 1e-6;       ///< Newton update convergence tolerance [V]
  double tol_i_ma = 1e-8;    ///< residual convergence tolerance [mA]
  double gmin_ma_per_v = 1e-6;  ///< leak conductance to ground for conditioning
  RetryPolicy retry{};       ///< convergence retry ladder (see above)
  /// Per-attempt wall-clock watchdog [ms]. A transient attempt that runs
  /// longer throws a SolverError, turning a hung solve into a retry-ladder
  /// rung failure instead of an infinite stall. 0 defers to the process-wide
  /// default (`solve_watchdog_ms()`, seeded from $RW_SOLVE_WATCHDOG_MS);
  /// negative disables the watchdog outright.
  double watchdog_ms = 0.0;
  /// Optional warm-start seed: full node-voltage vector (indexed by NodeId)
  /// for the t=0 operating point, typically the DC solution of a
  /// neighboring sweep point on the same topology. The solver polishes the
  /// seed with a full-tolerance Newton solve and falls back to the cold DC
  /// escalation chain if the polish does not converge, so a stale or wrong
  /// seed can cost time but never accuracy. The pointed-to vector must
  /// outlive the solve; the solver never mutates it. Non-owning.
  const std::vector<double>* initial_state = nullptr;
};

/// Process-wide default for `TransientOptions::watchdog_ms == 0`, lazily
/// initialized from $RW_SOLVE_WATCHDOG_MS (0 = no watchdog). Tests and the
/// chaos harness override it programmatically.
double solve_watchdog_ms();
void set_solve_watchdog_ms(double ms);

/// One rung of the retry ladder, for post-mortem reporting.
struct SolveAttempt {
  int attempt = 0;       ///< 0-based rung index
  std::string settings;  ///< human-readable effective options for the rung
  std::string outcome;   ///< failure detail for the rung
};

/// Structured non-convergence report. `what()` carries the full story
/// (stage, node, time, iterations, circuit size, attempt history) so even
/// catch sites that only log the message stay informative.
class SolverError : public std::runtime_error {
 public:
  SolverError(std::string stage, std::string detail, std::string node, double time_ps,
              int iterations, int n_unknowns, std::vector<SolveAttempt> attempts = {});

  [[nodiscard]] const std::string& stage() const { return stage_; }
  [[nodiscard]] const std::string& detail() const { return detail_; }
  /// Name of the node with the worst residual at failure ("" when unknown).
  [[nodiscard]] const std::string& node() const { return node_; }
  [[nodiscard]] double time_ps() const { return time_ps_; }
  [[nodiscard]] int iterations() const { return iterations_; }
  [[nodiscard]] int n_unknowns() const { return n_unknowns_; }
  [[nodiscard]] const std::vector<SolveAttempt>& attempts() const { return attempts_; }

 private:
  std::string stage_;
  std::string detail_;
  std::string node_;
  double time_ps_;
  int iterations_;
  int n_unknowns_;
  std::vector<SolveAttempt> attempts_;
};

/// Waveforms for the probed nodes plus the final full solution vector.
class TransientResult {
 public:
  TransientResult(std::vector<NodeId> probes, int node_count);

  [[nodiscard]] const Waveform& waveform(NodeId node) const;
  void record(double t_ps, const std::vector<double>& node_voltages);
  [[nodiscard]] const std::vector<double>& final_voltages() const { return final_; }

 private:
  std::vector<NodeId> probes_;
  std::vector<Waveform> waveforms_;
  std::vector<double> final_;
};

/// Solves the DC operating point at time `t_ps` (sources held at their value
/// at that instant, capacitors open). Returns the full node-voltage vector
/// indexed by NodeId. \throws SolverError if Newton fails to converge even
/// with source stepping and pseudo-transient homotopy.
std::vector<double> dc_operating_point(const Circuit& circuit, double t_ps = 0.0,
                                       const TransientOptions& options = {});

/// Runs a transient analysis from the DC operating point at t=0, retrying
/// through `options.retry` on non-convergence. \throws SolverError carrying
/// the full attempt history once the ladder is exhausted.
TransientResult simulate_transient(const Circuit& circuit, const TransientOptions& options,
                                   const std::vector<NodeId>& probes);

}  // namespace rw::spice
