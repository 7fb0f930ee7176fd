#pragma once

/// \file graph.hpp
/// Structural helpers for timing analysis: the fanout index, combinational
/// levelization (flops cut the graph), and the net load model (pin caps +
/// fanout-proportional wire capacitance).

#include <vector>

#include "liberty/library.hpp"
#include "netlist/netlist.hpp"

namespace rw::sta {

struct StaOptions {
  double input_slew_ps = 40.0;  ///< slew assumed at primary inputs and the clock pin
  double po_load_ff = 2.0;      ///< capacitance assumed at primary outputs
  double wire_cap_per_fanout_ff = 0.15;  ///< crude wire-load model
};

/// Precomputed fanout index and topological order of combinational
/// instances. \throws std::runtime_error on a combinational loop.
struct Adjacency {
  netlist::Fanout fanout;     ///< per net: sink pins and primary-output uses
  std::vector<int> comb_topo;  ///< combinational instances, topo order
  std::vector<bool> is_flop;   ///< per instance

  static Adjacency build(const netlist::Module& module, const liberty::Library& library);
};

/// Total capacitive load on a net (sink pin caps + wire + PO load).
double net_load_ff(const netlist::Module& module, const liberty::Library& library,
                   const StaOptions& options, const Adjacency& adj, netlist::NetId net);

}  // namespace rw::sta
