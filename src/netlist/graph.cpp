#include "netlist/graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace rw::netlist {

namespace {

std::vector<std::uint8_t> exact_flop_flags(const Module& module,
                                           const liberty::Library& library) {
  std::vector<std::uint8_t> is_flop;
  for (const Instance& inst : module.instances()) {
    is_flop.push_back(library.at(inst.cell).is_flop ? 1 : 0);
  }
  return is_flop;
}

}  // namespace

Graph::Graph(const Module& module, const liberty::Library& library)
    : Graph(module, exact_flop_flags(module, library)) {}

Graph::Graph(const Module& module, std::vector<std::uint8_t> is_flop)
    : module_(&module), fanout_(module), is_flop_(std::move(is_flop)) {
  const auto& instances = module.instances();
  const std::size_t n = instances.size();
  if (is_flop_.size() != n) {
    throw std::invalid_argument("Graph: flop flags not aligned with instances");
  }
  // Edges: a combinational instance that is its output net's driver points
  // at every combinational sink pin of that net.
  sink_start_.push_back(0);
  for (std::size_t i = 0; i < n; ++i) {
    const NetId out = instances[i].out;
    if (is_flop_[i] == 0 && out != kNoNet && module.driver(out) == static_cast<int>(i)) {
      for (const PinUse use : fanout_.sinks(out)) {
        if (is_flop_[static_cast<std::size_t>(use.instance)] == 0) sink_.push_back(use.instance);
      }
    }
    sink_start_.push_back(static_cast<std::int32_t>(sink_.size()));
  }

  // Kahn over the edges, raising each sink to one level above its deepest
  // fanin driver; an instance's level is final once its last in-edge is used.
  std::vector<std::int32_t> in_degree(n, 0);
  for (const std::int32_t v : sink_) ++in_degree[static_cast<std::size_t>(v)];
  std::vector<std::int32_t> level(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (is_flop_[i] == 0 && in_degree[i] == 0) order_.push_back(static_cast<std::int32_t>(i));
  }
  for (std::size_t head = 0; head < order_.size(); ++head) {
    const auto u = static_cast<std::size_t>(order_[head]);
    for (const std::int32_t v : sinks(u)) {
      const auto vi = static_cast<std::size_t>(v);
      level[vi] = std::max(level[vi], level[u] + 1);
      if (--in_degree[vi] == 0) order_.push_back(v);
    }
  }
  std::sort(order_.begin(), order_.end(), [&](std::int32_t a, std::int32_t b) {
    return std::pair(level[static_cast<std::size_t>(a)], a) <
           std::pair(level[static_cast<std::size_t>(b)], b);
  });
  for (std::size_t k = 0; k < order_.size(); ++k) {
    const auto at = [&](std::size_t j) { return level[static_cast<std::size_t>(order_[j])]; };
    if (k == 0 || at(k) != at(k - 1)) level_start_.push_back(static_cast<std::int32_t>(k));
  }
  level_start_.push_back(static_cast<std::int32_t>(order_.size()));
  for (std::size_t i = 0; i < n; ++i) {
    if (is_flop_[i] == 0 && in_degree[i] != 0) unlevelled_.push_back(static_cast<std::int32_t>(i));
  }
}

void Graph::require_acyclic(std::string_view who) const {
  if (unlevelled_.empty()) return;
  throw std::runtime_error(std::string(who) + ": combinational cycle in module '" +
                           module_->name() + "'");
}

}  // namespace rw::netlist
