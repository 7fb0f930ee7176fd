#pragma once

/// \file analysis.hpp
/// Graph-based static timing analysis with slew propagation over NLDM
/// tables, rise/fall tracked separately. Start points: primary inputs and
/// flop CK->Q arcs; endpoints: primary outputs and flop D pins (+ setup).
/// This is the "Synopsys Timing Analysis" box of Fig. 4(b)/(c).

#include <limits>
#include <string>
#include <vector>

#include "liberty/library.hpp"
#include "netlist/graph.hpp"

namespace rw::sta {

struct StaOptions {
  double input_slew_ps = 40.0;  ///< slew assumed at primary inputs and the clock pin
  double po_load_ff = 2.0;      ///< capacitance assumed at primary outputs
  double wire_cap_per_fanout_ff = 0.15;  ///< crude wire-load model
};

/// Total capacitive load on a net: sink pin caps, the wire-load model and
/// the primary-output load.
double net_load_ff(const netlist::Module& module, const liberty::Library& library,
                   const StaOptions& options, const netlist::Fanout& fanout,
                   netlist::NetId net);

inline constexpr double kNeverArrives = std::numeric_limits<double>::lowest();

/// Per-net timing state, indexed by edge (0 = rise, 1 = fall).
struct NetTiming {
  double arrival_ps[2] = {kNeverArrives, kNeverArrives};
  double slew_ps[2] = {0.0, 0.0};
  // Backpointers for path reconstruction (worst contributor per edge).
  int from_instance[2] = {-1, -1};  ///< driver instance, -1 = start point
  int from_pin[2] = {-1, -1};       ///< driver input-pin index
  bool from_in_rising[2] = {false, false};
};

struct Endpoint {
  netlist::NetId net = netlist::kNoNet;
  bool rising = false;       ///< worst edge at the endpoint
  bool is_flop_d = false;
  int flop_instance = -1;
  double setup_ps = 0.0;     ///< added for flop D endpoints
  double arrival_ps = 0.0;   ///< data arrival at the endpoint net
  /// Arrival + setup: what the clock period must cover.
  [[nodiscard]] double cost_ps() const { return arrival_ps + setup_ps; }
};

class Sta {
 public:
  /// Runs the analysis immediately. \throws std::runtime_error on
  /// combinational loops or missing cells.
  Sta(const netlist::Module& module, const liberty::Library& library, StaOptions options = {});

  [[nodiscard]] const NetTiming& timing(netlist::NetId net) const;
  [[nodiscard]] double load_ff(netlist::NetId net) const;

  /// Slack of a net against the critical delay (worst over edges);
  /// +infinity for nets with no downstream endpoint.
  [[nodiscard]] double slack_ps(netlist::NetId net) const;

  /// All endpoints sorted by cost (descending).
  [[nodiscard]] const std::vector<Endpoint>& endpoints() const { return endpoints_; }

  /// Critical-path delay: the minimum clock period the circuit supports
  /// (max endpoint cost). \throws std::runtime_error when there are no
  /// endpoints.
  [[nodiscard]] double critical_delay_ps() const;

  [[nodiscard]] const netlist::Module& module() const { return module_; }
  [[nodiscard]] const liberty::Library& library() const { return library_; }
  [[nodiscard]] const StaOptions& options() const { return options_; }

 private:
  void propagate();
  void compute_endpoints();
  void compute_required();

  const netlist::Module& module_;
  const liberty::Library& library_;
  StaOptions options_;
  netlist::Graph graph_;
  std::vector<const liberty::Cell*> cells_;  ///< per instance, resolved once
  std::vector<double> load_ff_;
  std::vector<NetTiming> net_timing_;
  std::vector<Endpoint> endpoints_;
  std::vector<double> required_ps_;  ///< 2 entries per net (rise, fall)
};

/// Delay/slew lookup for one arc edge; shared with path re-evaluation.
struct ArcEdge {
  double delay_ps = 0.0;
  double out_slew_ps = 0.0;
};
ArcEdge lookup_arc_edge(const liberty::TimingArc& arc, bool out_rising, double in_slew_ps,
                        double load_ff);

}  // namespace rw::sta
