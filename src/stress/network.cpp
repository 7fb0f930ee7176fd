#include "stress/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/strings.hpp"

namespace rw::stress {

namespace {

const liberty::Cell* resolve_cell(const liberty::Library& library, const std::string& name) {
  if (const liberty::Cell* c = library.find(name)) return c;
  std::string base;
  double lp = 0.0;
  double ln = 0.0;
  if (util::parse_indexed_cell_name(name, base, lp, ln)) return library.find(base);
  return nullptr;
}

}  // namespace

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
  NetworkModel model;
  model.module_ = &module;
  const auto& instances = module.instances();
  const std::size_t n_inst = instances.size();
  const std::size_t n_net = static_cast<std::size_t>(module.net_count());

  // -- Resolve every instance against the library.
  model.nodes_.resize(n_inst);
  for (std::size_t i = 0; i < n_inst; ++i) {
    const netlist::Instance& inst = instances[i];
    const liberty::Cell* cell = resolve_cell(library, inst.cell);
    if (cell == nullptr) {
      throw std::runtime_error("stress: unknown cell '" + inst.cell + "' on instance '" +
                               inst.name + "'");
    }
    const int k = cell->n_inputs();
    if (static_cast<int>(inst.fanin.size()) != k) {
      throw std::runtime_error("stress: instance '" + inst.name + "' has " +
                               std::to_string(inst.fanin.size()) + " fanins but cell '" +
                               cell->name + "' expects " + std::to_string(k));
    }
    if (k > kMaxGateInputs) {
      throw std::runtime_error("stress: cell '" + cell->name + "' exceeds " +
                               std::to_string(kMaxGateInputs) + " inputs");
    }
    NetworkNode& node = model.nodes_[i];
    node.cell = cell;
    node.k = k;
    node.is_flop = cell->is_flop;
    node.truth = cell->truth;
    int pin_index = 0;
    for (const liberty::Pin* pin : cell->input_pins()) {
      if (pin->is_clock) {
        node.clock_pin_mask |= std::uint64_t{1} << pin_index;
      } else if (node.data_pin < 0) {
        node.data_pin = pin_index;
      }
      ++pin_index;
    }
    if (node.is_flop && node.data_pin < 0) {
      throw std::runtime_error("stress: flop cell '" + cell->name + "' has no data pin");
    }
  }

  // -- Levelize the combinational instances (Kahn). Sources (PIs, undriven
  //    nets, flop outputs) sit at level 0.
  std::vector<int> comb_driver(n_net, -1);
  for (std::size_t i = 0; i < n_inst; ++i) {
    if (!model.nodes_[i].is_flop && instances[i].out != netlist::kNoNet) {
      comb_driver[static_cast<std::size_t>(instances[i].out)] = static_cast<int>(i);
    }
  }
  // In-degree counts fanin *pins* and each sink pin decrements it once, so
  // an instance with one net on several pins is released exactly when that
  // net's driver is ordered.
  const netlist::Fanout fanout(module);
  std::vector<int> level(n_inst, 0);
  std::vector<int> indeg(n_inst, 0);
  std::size_t comb_count = 0;
  for (std::size_t i = 0; i < n_inst; ++i) {
    if (model.nodes_[i].is_flop) continue;
    ++comb_count;
    for (netlist::NetId f : instances[i].fanin) {
      if (f != netlist::kNoNet && comb_driver[static_cast<std::size_t>(f)] >= 0) ++indeg[i];
    }
  }
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n_inst; ++i) {
    if (!model.nodes_[i].is_flop && indeg[i] == 0) ready.push_back(i);
  }
  std::size_t processed = 0;
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const std::size_t i = ready[head];
    ++processed;
    const int lv = level[i];
    if (static_cast<std::size_t>(lv) >= model.levels_.size()) model.levels_.resize(lv + 1);
    model.levels_[static_cast<std::size_t>(lv)].push_back(i);
    if (instances[i].out == netlist::kNoNet) continue;
    for (const netlist::PinUse use : fanout.sinks(instances[i].out)) {
      const auto si = static_cast<std::size_t>(use.instance);
      if (model.nodes_[si].is_flop) continue;
      level[si] = std::max(level[si], lv + 1);
      if (--indeg[si] == 0) ready.push_back(si);
    }
  }
  if (processed != comb_count) {
    throw std::runtime_error("stress: combinational cycle in module '" + module.name() + "'");
  }
  for (auto& lv : model.levels_) std::sort(lv.begin(), lv.end());

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
    for (const auto& lv : model.levels_) {
      for (std::size_t i : lv) {
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
