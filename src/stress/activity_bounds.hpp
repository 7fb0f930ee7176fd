#pragma once

/// \file activity_bounds.hpp
/// Simulation-free switching-activity analysis: proves per-net
/// transition-density intervals [lo, hi] — expected toggles per clock cycle —
/// over *all* workloads consistent with the declared input model, the same
/// way analyzer.hpp proves signal-probability intervals. The multi-mechanism
/// aging models (EM, HCI, switching power) key on activity, not duty cycle;
/// this is their certified input.
///
/// ## Contract (what a density interval means)
///
/// Nets are sampled once per cycle at the simulator's observation point
/// (post-evaluate, pre-clock-edge); a *toggle* is a change between two
/// consecutive samples. `[lo, hi]` bounds the long-run toggles-per-cycle of
/// the net for any workload satisfying the probability contract of
/// analyzer.hpp plus, per primary input, a declared density interval
/// (default: derived from the probability interval — see ActivityOptions).
/// The clock net is the exception: it is pinned at `clock_transitions`
/// (default 2 = one rising + one falling edge per cycle), the intra-cycle
/// waveform convention matching `extract_duty_cycles`'s 0.5 clock duty.
/// Cycle-sampled simulation never observes intra-cycle edges, so measured
/// rates on clock-fed nets are NOT comparable to these bounds; the report
/// flags such nets (`clock_fed`) and the AC001 oracle skips them.
///
/// ## Transfer functions
///
/// Per gate, with fanin probabilities p_i (from the converged probability
/// pass) and densities d_i:
///   * disjoint fanin supports (independence holds): the Najm-style
///     Boolean-difference bound D(y) ≤ Σ_i P(∂f/∂x_i)·D(x_i), with each
///     P(∂f/∂x_i) the exact vertex-enumerated image of the difference
///     function over the other inputs' probability boxes. Soundness: walk
///     the toggled inputs one at a time between consecutive samples; f
///     changes only if some step flips it, and step i flips it only when
///     ∂f/∂x_i holds at a mixed-time assignment of the others — whose
///     marginals the stationary p_i intervals cover.
///   * additionally, when every fanin's (p_i, d_i) box is small enough
///     (≤ 16 box vertices total and ≤ 4 effective inputs), the *pair-exact*
///     transfer: under stationarity the joint of (x_i at t, x_i at t+1) is
///     exactly (1−p−d/2, d/2, d/2, p−d/2), so E[toggle(f)] is multi-affine
///     per input and its extrema sit on box vertices. Exact for point
///     inputs — this is what makes zero-width inputs collapse to the
///     simulator's rates — and a sound refinement otherwise (the box
///     contains the feasible region d ≤ 2·min(p, 1−p)).
///   * overlapping supports (reconvergent fanout): per-term Fréchet
///     widening, term_i = min(d_i.hi, upper(transfer_correlated(∂f/∂x_i))),
///     lower bound 0 — sound under arbitrary correlation.
///   * every data net is finally capped by the union bound Σ d_i.hi, by 1
///     toggle/cycle (cycle sampling sees at most one change per boundary;
///     clock-fed gates keep the Σ cap instead), and by the stationarity cap
///     d ≤ 2·max_{p ∈ [p.lo, p.hi]} min(p, 1−p) from its own probability
///     interval.
///
/// Inputs whose probability is proven constant are cofactored out before
/// any transfer (a frozen input contributes no toggles and no correlation);
/// a gate that reduces to a single-input identity/negation passes its
/// remaining fanin's density through exactly, which is sound under any
/// correlation and keeps clock buffers at exactly [2, 2].
///
/// ## Sequential circuits
///
/// Flop outputs toggle exactly when D differs from Q at the edge:
/// D(Q) = P(D ⊕ Q) over the converged probability fixed point (Kleene
/// iteration with capped sound truncation, inherited from analyze_network),
/// bounded with the correlation-safe transfer since Q's support contains
/// D's. Combinational densities then need a single levelized sweep — the
/// probability pass already resolved the temporal feedback.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "stress/analyzer.hpp"
#include "stress/interval.hpp"

namespace rw::stress {

class NetworkModel;

struct ActivityOptions {
  /// Input model for the underlying signal-probability pass (which runs
  /// first; the density transfer consumes its per-net intervals).
  AnalyzeOptions probability;
  /// Per-PI toggle-density declarations [lo, hi] in toggles/cycle, keyed by
  /// net name (unknown names are ignored). Declarations are intersected
  /// with the stationarity cap implied by the PI's probability interval.
  std::unordered_map<std::string, Interval> input_densities;
  /// Density assumed for PIs without an explicit declaration. Unset: derived
  /// per input as [0, min(1, 2·max_{p} min(p, 1−p))] — the densest
  /// stationary signal admitted by the input's probability interval.
  std::optional<Interval> default_input_density;
  /// Transitions per cycle pinned on the clock net (2 = one rising + one
  /// falling edge, matching extract_duty_cycles's 0.5-duty convention).
  double clock_transitions = 2.0;

  [[nodiscard]] bool operator==(const ActivityOptions&) const = default;
};

/// Per-instance activity summary for the multi-mechanism stress models.
struct InstanceActivity {
  /// Toggle bound per input pin; clock pins are pinned at
  /// [clock_transitions, clock_transitions].
  std::vector<Interval> pin_toggles;
  /// Toggle bound on the output net ([0, 0] for dangling outputs).
  Interval output_toggles = Interval::point(0.0);
  /// Capacitive load on the output net: Σ sink input-pin caps (fF).
  double load_ff = 0.0;
  /// Load-weighted switching bound, load_ff × output_toggles — proportional
  /// to dynamic energy per cycle (fF·toggles; multiply by V²/2 for J).
  RealInterval switch_cap_ff;
  /// HCI stress proxy: worst per-transistor gate-node toggle bound. Refined
  /// through the cell's stage topology when the catalog spec is available
  /// (`hci_from_stacks`), else the sound pin-level fallback.
  RealInterval hci;
  bool hci_from_stacks = false;
  /// The output density needed the correlation-safe (Fréchet) transfer.
  bool widened = false;
};

struct ActivityReport {
  /// The underlying signal-probability fixed point (same shape `analyze`
  /// returns — iterations, convergence, λ bounds — computed on the shared
  /// structural model).
  StressReport probability;
  /// Toggles/cycle interval per NetId (index-aligned with the module).
  std::vector<Interval> density;
  /// 1 when the net's density needed the correlation-safe transfer.
  std::vector<char> density_widened;
  /// 1 when the net combinationally depends on the clock net (intra-cycle
  /// toggles; cycle-sampled measurements are not comparable — see \file).
  std::vector<char> clock_fed;
  /// Per-instance summaries, index-aligned with `module.instances()`.
  std::vector<InstanceActivity> instances;
  /// Driven nets proven quiet (density upper bound ≤ 1e-9) — the AC002
  /// candidates.
  std::size_t quiet_driven_nets = 0;

  [[nodiscard]] std::size_t widened_density_count() const;
};

/// Runs the activity analysis (probability pass + density pass + instance
/// summaries). \throws std::runtime_error exactly where `analyze` does.
ActivityReport analyze_activity(const netlist::Module& module,
                                const liberty::Library& library,
                                const ActivityOptions& options = {});

/// Same over a prebuilt structural model (shared with `analyze_network`).
ActivityReport analyze_network_activity(const NetworkModel& model,
                                        const ActivityOptions& options = {});

/// Same, on the probability fixed point `analyze_network(model,
/// options.probability)` that the caller already holds.
ActivityReport analyze_network_activity(const NetworkModel& model,
                                        const ActivityOptions& options,
                                        StressReport probability);

/// Boolean difference ∂f/∂x_input of a k-input truth table: a (k−1)-input
/// truth table over the remaining inputs in their original relative order.
[[nodiscard]] std::uint64_t boolean_difference(std::uint64_t truth, int k, int input);

/// Density transfer for fanins with pairwise-disjoint supports: Najm bound ∩
/// pair-exact enumeration (when gated on) ∩ the caps described in \file.
/// `prob`/`density` are the fanin probability and density intervals. k ≤ 6.
[[nodiscard]] Interval density_independent(std::uint64_t truth, int k, const Interval* prob,
                                           const Interval* density);

/// Correlation-safe density transfer: per-term Fréchet widening, lower 0.
[[nodiscard]] Interval density_correlated(std::uint64_t truth, int k, const Interval* prob,
                                          const Interval* density);

/// The stationarity cap 2·max_{p ∈ interval} min(p, 1−p): no stationary
/// binary signal with an admissible marginal can toggle more often.
[[nodiscard]] double stationary_density_cap(const Interval& prob);

}  // namespace rw::stress
