#pragma once

/// \file simulator.hpp
/// Cycle-based (zero-delay) gate-level simulator: evaluates the
/// combinational cloud in topological order once per clock cycle, then
/// captures flop inputs on the clock edge. This is the functional golden
/// model and the activity/duty-cycle extractor of the dynamic-aging flow
/// (Modelsim's role in Fig. 4(b)).
///
/// The module is compiled once, in `sta::Adjacency`'s topological order,
/// into flat arrays — fanin CSR, output net and truth word per
/// combinational gate, (Q, D) per flop — and the state is one byte per
/// net, so a cycle reads nothing but these arrays.

#include <cstdint>
#include <vector>

#include "liberty/library.hpp"
#include "netlist/netlist.hpp"

namespace rw::logicsim {

class CycleSimulator {
 public:
  /// Flops reset to 0; inputs default to 0.
  /// \throws std::runtime_error on a combinational loop.
  CycleSimulator(const netlist::Module& module, const liberty::Library& library);

  /// \throws std::invalid_argument when `net` is not a primary input.
  void set_input(netlist::NetId net, bool value);
  /// Evaluates combinational logic with current inputs and flop states.
  /// Call before reading values; `clock_edge()` then advances state.
  void evaluate();
  /// Rising clock edge: every flop captures its D value.
  void clock_edge();
  /// Convenience: evaluate + capture.
  void step() {
    evaluate();
    clock_edge();
  }

  [[nodiscard]] bool value(netlist::NetId net) const {
    return net_value_[static_cast<std::size_t>(net)] != 0;
  }
  /// Every net's value (0 or 1), indexed by NetId.
  [[nodiscard]] const std::vector<std::uint8_t>& values() const { return net_value_; }
  [[nodiscard]] const netlist::Module& module() const { return module_; }
  [[nodiscard]] const liberty::Library& library() const { return library_; }

  void reset();

 private:
  const netlist::Module& module_;
  const liberty::Library& library_;
  /// Combinational gate g (topological order) reads nets
  /// fanin_[fanin_start_[g] .. fanin_start_[g + 1]) and drives out_[g].
  std::vector<std::int32_t> fanin_start_;
  std::vector<std::int32_t> fanin_;
  std::vector<std::int32_t> out_;
  std::vector<std::uint64_t> truth_;
  std::vector<std::int32_t> flop_q_;
  std::vector<std::int32_t> flop_d_;
  std::vector<std::uint8_t> flop_state_;  ///< aligned with flop_q_/flop_d_
  std::vector<std::uint8_t> is_input_;    ///< per net
  std::vector<std::uint8_t> net_value_;
};

}  // namespace rw::logicsim
