#pragma once

/// \file interval_sta.hpp
/// Interval-domain static timing analysis — the `rwprove` engine. Propagates
/// `[lo, hi]` arrival and slew intervals (stress::RealInterval) through the
/// timing graph, looking every arc up over an instance's *bracketing
/// λ-lattice corner cells* (charlib/interval_query.hpp) instead of one
/// library cell. The resulting per-endpoint interval is a proof obligation:
/// the aged critical-path delay under ANY workload consistent with the input
/// model lies inside it.
///
/// ## Soundness argument (what is bounded where)
///
///  1. λ coverage — each instance's proven (λp, λn) interval is bracketed by
///     the ≤ 4 extreme quantized lattice corners; per-axis monotone aging
///     response (the adaptive-grid assumption, charlib/adaptive.hpp) puts
///     every admissible corner's table entries inside the bracket's entry
///     ranges. Delay/slew lookups take the hull over the bracket cells.
///  2. NLDM slew/load interpolation — the input slew is itself an interval,
///     so lookups use `util::table_range`, the *exact* min/max of the
///     piecewise-bilinear surface over the slew × load query rectangle
///     (extrema lie on query corners or interior grid knots; no error term
///     is needed inside the NLDM model).
///  3. Certified λ-interpolation error — corners served by the adaptive grid
///     carry an `rw_interp` per-entry bound (LB007 machinery); every lookup
///     over such a corner is widened by `amp * bound_ps`, where `amp` is the
///     extrapolation amplification reported by `table_range` (bilinear
///     weights can exceed 1 outside the characterized axes).
///  4. max/+ propagation — an output arrival is max over contributing
///     (input, edge) candidates of arrival + delay; the max of lower bounds
///     lower-bounds the max, the max of upper bounds upper-bounds it. The
///     output slew hulls over every candidate that can still win (candidate
///     upper ≥ best lower), which contains the realized winner's slew.
///
/// An instance whose bracketing corner set is incomplete (any corner missing
/// or quarantined — a partial bracket does not bound the λ interval) makes
/// every downstream interval *vacuous*: propagation continues on the
/// resolved corners (or the fresh cell's tables when none resolved) so the
/// numbers stay finite, but the vacuous flag travels with them and PV003
/// refuses to treat the result as a proof.
///
/// Propagation is a deterministic serial topological pass (like sta::Sta),
/// so results are bitwise identical for any thread count; with exactly one
/// corner per instance, point input slews, and no interp markers it
/// reproduces scalar `Sta` arithmetic bitwise.

#include <string>
#include <vector>

#include "charlib/interval_query.hpp"
#include "netlist/graph.hpp"
#include "sta/analysis.hpp"
#include "stress/interval.hpp"

namespace rw::sta {

/// Per-net interval timing state, indexed by edge (0 = rise, 1 = fall).
struct NetIntervalTiming {
  stress::RealInterval arrival[2] = {{kNeverArrives, kNeverArrives},
                                     {kNeverArrives, kNeverArrives}};
  stress::RealInterval slew[2] = {{0.0, 0.0}, {0.0, 0.0}};
  /// Backpointers along the upper-bound path (worst hi contributor).
  int from_instance[2] = {-1, -1};
  int from_pin[2] = {-1, -1};
  bool from_in_rising[2] = {false, false};
  /// The winning hi arc's delay-interval width and the certified-interp
  /// share of it — the per-edge blame quantities (PV002 ranking).
  double edge_width_ps[2] = {0.0, 0.0};
  double edge_interp_ps[2] = {0.0, 0.0};
  /// True when any arc on any path into this edge had an incomplete
  /// bracketing corner set: the numeric bounds are a proxy, not a proof.
  bool vacuous[2] = {false, false};
};

struct IntervalEndpoint {
  netlist::NetId net = netlist::kNoNet;
  bool rising = false;  ///< edge with the worst upper bound
  bool is_flop_d = false;
  int flop_instance = -1;
  stress::RealInterval setup_ps;    ///< hull over the flop's bracket corners
  stress::RealInterval arrival_ps;  ///< [max of lo, max of hi] over edges
  bool vacuous = false;
  [[nodiscard]] stress::RealInterval cost_ps() const { return arrival_ps + setup_ps; }
};

/// One edge of the proven worst (upper-bound) path, for blame ranking.
struct PathBlame {
  std::string instance;
  std::string cell;   ///< base cell name
  std::string pin;    ///< input pin the path enters through
  double width_ps = 0.0;   ///< this arc's delay-interval width contribution
  double interp_ps = 0.0;  ///< certified λ-interpolation share of the width
};

/// Everything the PV lint rules (PV001..PV003) need from a completed run.
struct ProveSummary {
  double fresh_cp_ps = 0.0;           ///< scalar fresh critical path
  stress::RealInterval aged_cp_ps;    ///< proven aged critical-path interval
  bool vacuous = false;               ///< the interval proves nothing (PV003)
  std::vector<std::string> vacuous_instances;  ///< zero-corner instances, det. order
  std::vector<PathBlame> blame;       ///< worst-path edges ranked by width desc
  double guardband_ps = -1.0;         ///< candidate to certify; < 0 disables PV001
  double width_budget_ps = -1.0;      ///< slack budget; < 0 disables PV002
};

class IntervalSta {
 public:
  /// Runs the analysis immediately. `corners` must be index-aligned with
  /// `module.instances()` (see charlib::corners_from_factory /
  /// corners_from_library). \throws std::runtime_error on combinational
  /// loops or missing cells.
  IntervalSta(const netlist::Module& module, const liberty::Library& fresh,
              const std::vector<charlib::InstanceCorners>& corners, StaOptions options = {});

  [[nodiscard]] const NetIntervalTiming& timing(netlist::NetId net) const;
  [[nodiscard]] const stress::RealInterval& load_ff(netlist::NetId net) const;

  /// All endpoints sorted by upper-bound cost (descending; ties by net id).
  [[nodiscard]] const std::vector<IntervalEndpoint>& endpoints() const { return endpoints_; }

  /// Proven critical-path interval: [max cost.lo, max cost.hi] over
  /// endpoints. \throws std::runtime_error when there are no endpoints.
  [[nodiscard]] stress::RealInterval critical_interval_ps() const;

  /// True when any endpoint's interval is vacuous.
  [[nodiscard]] bool vacuous() const;

  /// Instances with an incomplete bracketing corner set, in instance order.
  [[nodiscard]] const std::vector<int>& vacuous_instances() const { return vacuous_instances_; }

  /// Worst (upper-bound) path edges of the top endpoint, ranked by
  /// delay-interval width descending (ties: path order). Empty when there
  /// are no endpoints.
  [[nodiscard]] std::vector<PathBlame> blame() const;

  /// Packages the run for the PV lint rules; `fresh_cp_ps` is the scalar
  /// fresh critical path the guardband is measured against.
  [[nodiscard]] ProveSummary summarize(double fresh_cp_ps) const;

  [[nodiscard]] const netlist::Module& module() const { return module_; }
  [[nodiscard]] const StaOptions& options() const { return options_; }

 private:
  void compute_loads();
  void propagate();
  void compute_endpoints();

  const netlist::Module& module_;
  const liberty::Library& fresh_;
  const std::vector<charlib::InstanceCorners>& corners_;
  StaOptions options_;
  netlist::Graph graph_;
  std::vector<stress::RealInterval> load_ff_;
  std::vector<NetIntervalTiming> net_timing_;
  std::vector<IntervalEndpoint> endpoints_;
  std::vector<int> vacuous_instances_;
};

}  // namespace rw::sta
