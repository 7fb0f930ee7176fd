#pragma once

/// \file analyzer.hpp
/// Simulation-free duty-cycle analysis: propagates signal-probability
/// intervals from the primary inputs through the gate network and returns,
/// per instance, provable bounds on the paper's footnote-2 duty cycles
/// (λn = mean over input pins of P(pin high), λp = 1 − λn).
///
/// ## Contract (what the bounds mean)
///
/// An interval `[lo, hi]` on a net bounds the long-run empirical frequency of
/// that net being logic-1 over post-warm-up measurement windows, for *any*
/// workload satisfying:
///   * each primary input's marginal frequency lies inside its declared
///     interval (default: the full `[0, 1]`, i.e. nothing assumed);
///   * distinct primary inputs are uncorrelated at any lag. A PI may be
///     arbitrarily self-correlated over time (bursts, periodic patterns).
///     If two PIs are correlated, declare both as `[0, 1]` — with the full
///     interval the analysis never exploits independence, so the result
///     stays sound.
///
/// ## Transfer functions
///
/// Per gate, the analysis picks the strongest sound bound available:
///   * inputs with pairwise-disjoint *support* (the set of PI/flop sources a
///     net transitively depends on): the multilinear probability polynomial
///     is evaluated at every vertex of the input box — exact under
///     independence, and extrema of a multilinear function lie on vertices;
///   * overlapping supports (reconvergent fanout) or a net repeated on two
///     pins: Fréchet-style cube bounds, sound under *arbitrary* correlation
///     (lower(f) = max over implicant cubes of Σ literal-bounds − (m−1);
///     upper by duality). Naive independence products are unsound here —
///     AND(a, ¬a) ≡ 0, yet the product bound would exclude 0.
///
/// ## Sequential circuits
///
/// Flop outputs are cut-points: every flop Q starts at ⊤ = [0, 1] and is
/// iterated (Q ← interval of D) to a fixed point. The transfer is monotone,
/// so every iterate over-approximates the limit and truncating the iteration
/// (`max_iterations`) is sound. A flop's support is {Q} ∪ support(D):
/// collapsing the temporal axis is required for soundness — AND(a, reg(a))
/// with an alternating `a` is identically 0, which independence would miss.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "liberty/library.hpp"
#include "netlist/netlist.hpp"
#include "stress/interval.hpp"

namespace rw::stress {

struct AnalyzeOptions {
  /// Interval assumed for primary inputs without an explicit override.
  Interval default_input = Interval::full();
  /// Per-PI overrides keyed by net name (unknown names are ignored).
  std::unordered_map<std::string, Interval> input_intervals;
  /// Duty cycle used for clock *pins* in λ aggregation (matches the
  /// simulator's `extract_duty_cycles`, which pins clocks at 0.5). The clock
  /// *net* itself is kept at [0, 1] so gating logic fed by it stays sound.
  double clock_probability = 0.5;
  int max_iterations = 64;       ///< cap on sequential fixed-point rounds
  double tolerance = 1e-9;       ///< convergence threshold on flop intervals

  [[nodiscard]] bool operator==(const AnalyzeOptions&) const = default;
};

/// Provable per-instance duty-cycle bounds (footnote-2 aggregation).
struct InstanceBounds {
  Interval lambda_n;     ///< mean over input pins of P(pin high)
  Interval lambda_p;     ///< complement of lambda_n
  bool widened = false;  ///< correlation-safe (Fréchet) transfer was required
};

struct StressReport {
  /// Net-probability interval per NetId (index-aligned with the module).
  std::vector<Interval> net;
  /// 1 when the net's driver needed the correlation-safe transfer.
  std::vector<char> net_widened;
  /// Per-instance λ bounds, index-aligned with `module.instances()`.
  std::vector<InstanceBounds> instances;
  int iterations = 0;      ///< sequential rounds executed
  bool converged = true;   ///< false when `max_iterations` truncated the run

  [[nodiscard]] std::size_t widened_net_count() const;
  [[nodiscard]] std::size_t constant_net_count() const;
};

/// Runs the analysis. \throws std::runtime_error on combinational cycles,
/// unknown cells, pin-count mismatches, or multi-driven nets.
StressReport analyze(const netlist::Module& module, const liberty::Library& library,
                     const AnalyzeOptions& options = {});

class NetworkModel;

/// Same analysis over a prebuilt structural model (see network.hpp), so a
/// caller running several interpretations — e.g. the switching-activity
/// analysis — resolves and levelizes the netlist exactly once.
StressReport analyze_network(const NetworkModel& model, const AnalyzeOptions& options = {});

/// Exact interval image of a k-input Boolean function (truth-table bit `p` =
/// output for pattern `p`) assuming the inputs are independent: the
/// multilinear polynomial evaluated over all 2^k box vertices. k ≤ 6.
[[nodiscard]] Interval transfer_independent(std::uint64_t truth, int k, const Interval* in);

/// Correlation-safe interval image of the same function: Fréchet cube
/// bounds, valid for arbitrarily correlated inputs with the given marginals.
[[nodiscard]] Interval transfer_correlated(std::uint64_t truth, int k, const Interval* in);

}  // namespace rw::stress
