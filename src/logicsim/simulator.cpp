#include "logicsim/simulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "sta/graph.hpp"

namespace rw::logicsim {

CycleSimulator::CycleSimulator(const netlist::Module& module, const liberty::Library& library)
    : module_(module), library_(library) {
  const auto& instances = module.instances();
  const sta::Adjacency adj = sta::Adjacency::build(module, library);
  fanin_start_.reserve(adj.comb_topo.size() + 1);
  fanin_start_.push_back(0);
  out_.reserve(adj.comb_topo.size());
  truth_.reserve(adj.comb_topo.size());
  for (const int idx : adj.comb_topo) {
    const netlist::Instance& inst = instances[static_cast<std::size_t>(idx)];
    fanin_.insert(fanin_.end(), inst.fanin.begin(), inst.fanin.end());
    fanin_start_.push_back(static_cast<std::int32_t>(fanin_.size()));
    out_.push_back(inst.out);
    truth_.push_back(library.at(inst.cell).truth);
  }
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (!adj.is_flop[i]) continue;
    flop_q_.push_back(instances[i].out);
    flop_d_.push_back(instances[i].fanin[0]);  // D pin
  }
  flop_state_.assign(flop_q_.size(), 0);
  is_input_.assign(static_cast<std::size_t>(module.net_count()), 0);
  for (const netlist::NetId pi : module.inputs()) is_input_[static_cast<std::size_t>(pi)] = 1;
  net_value_.assign(static_cast<std::size_t>(module.net_count()), 0);
}

void CycleSimulator::set_input(netlist::NetId net, bool value) {
  if (net < 0 || net >= module_.net_count() || is_input_[static_cast<std::size_t>(net)] == 0) {
    throw std::invalid_argument("CycleSimulator::set_input: not a primary input: " +
                                module_.net_name(net));
  }
  net_value_[static_cast<std::size_t>(net)] = value ? 1 : 0;
}

void CycleSimulator::evaluate() {
  std::uint8_t* const v = net_value_.data();
  // Flop outputs first.
  for (std::size_t f = 0; f < flop_q_.size(); ++f) v[flop_q_[f]] = flop_state_[f];
  // Combinational cloud in topological order; bit p of the pattern is the
  // value of input pin p.
  const std::int32_t* const fanin = fanin_.data();
  const std::int32_t* const start = fanin_start_.data();
  for (std::size_t g = 0; g < out_.size(); ++g) {
    unsigned pattern = 0;
    for (std::int32_t p = start[g], bit = 0; p < start[g + 1]; ++p, ++bit) {
      pattern |= static_cast<unsigned>(v[fanin[p]]) << bit;
    }
    v[out_[g]] = static_cast<std::uint8_t>((truth_[g] >> pattern) & 1U);
  }
}

void CycleSimulator::clock_edge() {
  for (std::size_t f = 0; f < flop_d_.size(); ++f) {
    flop_state_[f] = net_value_[static_cast<std::size_t>(flop_d_[f])];
  }
}

void CycleSimulator::reset() {
  std::fill(net_value_.begin(), net_value_.end(), 0);
  std::fill(flop_state_.begin(), flop_state_.end(), 0);
}

}  // namespace rw::logicsim
