#pragma once

/// \file graph.hpp
/// The levelized netlist graph: the one structural model that STA, interval
/// STA, both gate-level simulators, the stress/activity analyses and lint
/// NL001 walk.

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "liberty/library.hpp"
#include "netlist/netlist.hpp"

namespace rw::netlist {

/// Levelized view of a module's combinational core, int32 and
/// structure-of-arrays, on top of the module's `Fanout` index. It holds the
/// only definition of a combinational cycle: flops cut the graph; an edge
/// runs from `Module::driver(net)` (never an extra driver) to every
/// combinational instance reading `net`, once per fanin pin, so a net on two
/// pins of one gate is not a cycle; `kNoNet` pins and outputs make no edge.
/// An instance's level is its longest path from the sources; instances on or
/// behind a cycle are `unlevelled()`. The graph borrows the module and does
/// not follow later edits of it.
class Graph {
 public:
  /// `is_flop` is index-aligned with `module.instances()`.
  Graph(const Module& module, std::vector<std::uint8_t> is_flop);
  /// Flop flags from the library cell each instance names exactly.
  /// \throws std::out_of_range on an unknown cell.
  Graph(const Module& module, const liberty::Library& library);

  [[nodiscard]] const Module& module() const { return *module_; }
  [[nodiscard]] const Fanout& fanout() const { return fanout_; }
  [[nodiscard]] bool is_flop(std::size_t instance) const { return is_flop_[instance] != 0; }
  /// Combinational instances reading `instance`'s output, once per pin, in
  /// (instance, pin) order.
  [[nodiscard]] std::span<const std::int32_t> sinks(std::size_t instance) const {
    return slice(sink_, sink_start_, instance);
  }
  [[nodiscard]] std::size_t level_count() const { return level_start_.size() - 1; }
  /// The instances of level `l`, sorted by index.
  [[nodiscard]] std::span<const std::int32_t> level(std::size_t l) const {
    return slice(order_, level_start_, l);
  }
  /// Every levelled instance, level by level: the topological order.
  [[nodiscard]] std::span<const std::int32_t> order() const { return order_; }
  /// Combinational instances without a level, sorted by index.
  [[nodiscard]] std::span<const std::int32_t> unlevelled() const { return unlevelled_; }
  /// \throws std::runtime_error "<who>: combinational cycle in module
  /// '<name>'" unless `unlevelled()` is empty.
  void require_acyclic(std::string_view who) const;

 private:
  static std::span<const std::int32_t> slice(const std::vector<std::int32_t>& data,
                                             const std::vector<std::int32_t>& start,
                                             std::size_t k) {
    return {data.data() + start[k], data.data() + start[k + 1]};
  }

  const Module* module_;
  Fanout fanout_;
  std::vector<std::uint8_t> is_flop_;      ///< per instance
  std::vector<std::int32_t> sink_start_;   ///< per instance + 1: start in `sink_`
  std::vector<std::int32_t> sink_;
  std::vector<std::int32_t> level_start_;  ///< per level + 1: start in `order_`
  std::vector<std::int32_t> order_;
  std::vector<std::int32_t> unlevelled_;
};

}  // namespace rw::netlist
