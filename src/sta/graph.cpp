#include "sta/graph.hpp"

#include <stdexcept>

namespace rw::sta {

Adjacency Adjacency::build(const netlist::Module& module, const liberty::Library& library) {
  Adjacency adj{netlist::Fanout(module), {}, {}};
  const auto n_nets = static_cast<std::size_t>(module.net_count());
  const auto& instances = module.instances();
  adj.is_flop.assign(instances.size(), false);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    adj.is_flop[i] = library.at(instances[i].cell).is_flop;
  }

  // Kahn levelization over combinational instances. A net is "ready" when it
  // is a PI, a flop output, or its combinational driver has been ordered.
  std::vector<bool> net_ready(n_nets, false);
  std::vector<int> pending(instances.size(), 0);  // un-arrived fanin pins per comb instance
  for (netlist::NetId n = 0; n < module.net_count(); ++n) {
    const int drv = module.driver(n);
    if (drv == -1 || adj.is_flop[static_cast<std::size_t>(drv)]) {
      net_ready[static_cast<std::size_t>(n)] = true;
    }
  }
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (adj.is_flop[i]) continue;
    for (netlist::NetId f : instances[i].fanin) {
      if (!net_ready[static_cast<std::size_t>(f)]) ++pending[i];
    }
  }

  std::vector<int> queue;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (!adj.is_flop[i] && pending[i] == 0) queue.push_back(static_cast<int>(i));
  }
  while (!queue.empty()) {
    const int i = queue.back();
    queue.pop_back();
    adj.comb_topo.push_back(i);
    const netlist::NetId out = instances[static_cast<std::size_t>(i)].out;
    net_ready[static_cast<std::size_t>(out)] = true;
    for (const netlist::PinUse use : adj.fanout.sinks(out)) {
      const auto sink = static_cast<std::size_t>(use.instance);
      if (adj.is_flop[sink]) continue;
      if (--pending[sink] == 0) queue.push_back(use.instance);
    }
  }

  std::size_t comb_count = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (!adj.is_flop[i]) ++comb_count;
  }
  if (adj.comb_topo.size() != comb_count) {
    throw std::runtime_error("Adjacency::build: combinational loop in module " + module.name());
  }
  return adj;
}

double net_load_ff(const netlist::Module& module, const liberty::Library& library,
                   const StaOptions& options, const Adjacency& adj, netlist::NetId net) {
  double load = 0.0;
  for (const netlist::PinUse use : adj.fanout.sinks(net)) {
    const auto& inst = module.instances()[static_cast<std::size_t>(use.instance)];
    load += library.at(inst.cell).input_pins()[static_cast<std::size_t>(use.pin)]->cap_ff;
  }
  for (int k = 0; k < adj.fanout.po_uses(net); ++k) load += options.po_load_ff;
  load += options.wire_cap_per_fanout_ff * adj.fanout.count(net);
  return load;
}

}  // namespace rw::sta
