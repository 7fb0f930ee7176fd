#include "stress/network.hpp"

#include <stdexcept>
#include <string>
#include <unordered_map>

#include "stress/stacks.hpp"

namespace rw::stress {

bool NetworkModel::supports_overlap(netlist::NetId a, netlist::NetId b) const {
  const auto& sa = support_[static_cast<std::size_t>(a)];
  const auto& sb = support_[static_cast<std::size_t>(b)];
  for (std::size_t w = 0; w < words_; ++w) {
    if ((sa[w] & sb[w]) != 0) return true;
  }
  return false;
}

bool NetworkModel::depends_on_source(netlist::NetId net, netlist::NetId source) const {
  const int bit = source_bit_[static_cast<std::size_t>(source)];
  if (bit < 0) return false;
  const auto& s = support_[static_cast<std::size_t>(net)];
  return (s[static_cast<std::size_t>(bit) / 64] >>
          (static_cast<std::size_t>(bit) % 64)) & 1u;
}

NetworkModel NetworkModel::build(const netlist::Module& module,
                                 const liberty::Library& library) {
  if (!module.extra_drivers().empty()) {
    throw std::runtime_error("stress: module '" + module.name() +
                             "' has multi-driven nets; lint it first");
  }
  const auto& instances = module.instances();
  const std::size_t n_inst = instances.size();
  const std::size_t n_net = static_cast<std::size_t>(module.net_count());

  // -- Resolve every instance against the library. What depends only on the
  //    cell (pin masks, compiled stages) is derived once per distinct cell.
  std::vector<NetworkNode> nodes(n_inst);
  std::vector<std::uint8_t> is_flop(n_inst, 0);
  std::unordered_map<const liberty::Cell*, NetworkNode> per_cell;
  for (std::size_t i = 0; i < n_inst; ++i) {
    const netlist::Instance& inst = instances[i];
    const liberty::Cell* cell =
        liberty::resolve_cell(library, inst.cell, liberty::IndexRange::kUnit).cell;
    if (cell == nullptr) {
      throw std::runtime_error("stress: unknown cell '" + inst.cell + "' on instance '" +
                               inst.name + "'");
    }
    const auto [it, first_use] = per_cell.try_emplace(cell);
    NetworkNode& proto = it->second;
    if (first_use) {
      proto.cell = cell;
      proto.k = cell->n_inputs();
      proto.is_flop = cell->is_flop;
      proto.truth = cell->truth;
      proto.stages = compiled_catalog_cell(cell->name);
      int pin_index = 0;
      for (const liberty::Pin& pin : cell->pins) {
        if (!pin.is_input || pin_index >= kMaxGateInputs) continue;
        if (pin.is_clock) {
          proto.clock_pin_mask |= std::uint64_t{1} << pin_index;
        } else if (proto.data_pin < 0) {
          proto.data_pin = pin_index;
        }
        ++pin_index;
      }
    }
    const int k = proto.k;
    if (static_cast<int>(inst.fanin.size()) != k) {
      throw std::runtime_error("stress: instance '" + inst.name + "' has " +
                               std::to_string(inst.fanin.size()) + " fanins but cell '" +
                               cell->name + "' expects " + std::to_string(k));
    }
    if (k > kMaxGateInputs) {
      throw std::runtime_error("stress: cell '" + cell->name + "' exceeds " +
                               std::to_string(kMaxGateInputs) + " inputs");
    }
    if (proto.is_flop && proto.data_pin < 0) {
      throw std::runtime_error("stress: flop cell '" + cell->name + "' has no data pin");
    }
    nodes[i] = proto;
    is_flop[i] = proto.is_flop ? 1 : 0;
  }
  NetworkModel model(std::move(nodes), netlist::Graph(module, std::move(is_flop)));
  model.graph_.require_acyclic("stress");

  // -- Support bitsets. Sources: every undriven net (PIs, the clock,
  //    danglers) plus every flop output.
  model.source_bit_.assign(n_net, -1);
  int n_sources = 0;
  for (std::size_t net = 0; net < n_net; ++net) {
    const auto id = static_cast<netlist::NetId>(net);
    const int drv = module.driver(id);
    const bool flop_out = drv >= 0 && model.nodes_[static_cast<std::size_t>(drv)].is_flop;
    if (drv < 0 || flop_out) model.source_bit_[net] = n_sources++;
  }
  model.words_ = (static_cast<std::size_t>(n_sources) + 63) / 64;
  model.support_.assign(n_net, std::vector<std::uint64_t>(model.words_, 0));
  for (std::size_t net = 0; net < n_net; ++net) {
    if (model.source_bit_[net] >= 0) {
      model.support_[net][static_cast<std::size_t>(model.source_bit_[net]) / 64] |=
          std::uint64_t{1} << (static_cast<std::size_t>(model.source_bit_[net]) % 64);
    }
  }
  // Temporal collapse: support(flop Q) = {Q} ∪ support(D), iterated with the
  // combinational propagation until nothing grows.
  const std::size_t words = model.words_;
  const std::size_t max_passes = n_inst + 2;
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    bool changed = false;
    for (const std::int32_t inst : model.graph_.order()) {
      const auto i = static_cast<std::size_t>(inst);
      const netlist::NetId out = instances[i].out;
      if (out == netlist::kNoNet) continue;
      auto& dst = model.support_[static_cast<std::size_t>(out)];
      for (netlist::NetId f : instances[i].fanin) {
        if (f == netlist::kNoNet) continue;
        const auto& src = model.support_[static_cast<std::size_t>(f)];
        for (std::size_t w = 0; w < words; ++w) {
          const std::uint64_t merged = dst[w] | src[w];
          if (merged != dst[w]) {
            dst[w] = merged;
            changed = true;
          }
        }
      }
    }
    for (std::size_t i = 0; i < n_inst; ++i) {
      if (!model.nodes_[i].is_flop || instances[i].out == netlist::kNoNet) continue;
      const netlist::NetId d = model.nodes_[i].data_pin >= 0
                                   ? instances[i].fanin[model.nodes_[i].data_pin]
                                   : netlist::kNoNet;
      if (d == netlist::kNoNet) continue;
      auto& dst = model.support_[static_cast<std::size_t>(instances[i].out)];
      const auto& src = model.support_[static_cast<std::size_t>(d)];
      for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t merged = dst[w] | src[w];
        if (merged != dst[w]) {
          dst[w] = merged;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return model;
}

}  // namespace rw::stress
