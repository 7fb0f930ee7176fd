#pragma once

/// \file network.hpp
/// Shared structural model for the netlist-level abstract interpretations
/// (signal-probability analysis in analyzer.cpp, switching-activity analysis
/// in activity_bounds.cpp). Building the model resolves every instance
/// against the library, levelizes the combinational instances through
/// `netlist::Graph`, and computes per-net *support* bitsets — the set of
/// PI/flop sources a net transitively depends on — so both analyses share
/// one validated view of the circuit and one definition of "these inputs
/// may be correlated".

#include <cstdint>
#include <utility>
#include <vector>

#include "liberty/library.hpp"
#include "netlist/graph.hpp"
#include "netlist/netlist.hpp"

namespace rw::stress {

/// Truth tables are stored in a single 64-bit word, so cells are capped at
/// six inputs (2^6 patterns).
inline constexpr int kMaxGateInputs = 6;

struct CompiledCell;  // stacks.hpp

/// Per-instance data resolved once up front (once per distinct cell).
struct NetworkNode {
  const liberty::Cell* cell = nullptr;
  /// The cell's compiled catalog stage network; null for flops and for cells
  /// the catalog does not hold under this exact name (λ-indexed corners).
  const CompiledCell* stages = nullptr;
  std::uint64_t truth = 0;
  int k = 0;
  bool is_flop = false;
  int data_pin = -1;                 ///< flop: fanin index of the non-clock pin
  std::uint64_t clock_pin_mask = 0;  ///< bit j set when input pin j is a clock pin
};

/// Resolved, levelized, support-annotated view of one module. The model
/// borrows the module and library; both must outlive it.
class NetworkModel {
 public:
  /// Builds and validates the model. λ-indexed cell names fall back to their
  /// base cell (the Boolean function is λ-invariant).
  /// \throws std::runtime_error on multi-driven nets, unknown cells,
  /// pin-count mismatches, cells wider than kMaxGateInputs, flops without a
  /// data pin, or combinational cycles.
  static NetworkModel build(const netlist::Module& module, const liberty::Library& library);

  [[nodiscard]] const netlist::Module& module() const { return graph_.module(); }
  /// Index-aligned with `module().instances()`.
  [[nodiscard]] const std::vector<NetworkNode>& nodes() const { return nodes_; }
  /// The levelized graph: the analyses sweep it in level order.
  [[nodiscard]] const netlist::Graph& graph() const { return graph_; }

  /// Source bit of a net (-1 when the net is not a source). Sources are the
  /// undriven nets (PIs, the clock, danglers) and every flop output.
  [[nodiscard]] int source_bit(netlist::NetId net) const {
    return source_bit_[static_cast<std::size_t>(net)];
  }
  /// Support bitset of a net (`support_words()` 64-bit words).
  [[nodiscard]] const std::vector<std::uint64_t>& support(netlist::NetId net) const {
    return support_[static_cast<std::size_t>(net)];
  }
  [[nodiscard]] std::size_t support_words() const { return words_; }
  /// True when the two nets share at least one source (so their waveforms
  /// may be correlated and independence-based transfers are unsound).
  [[nodiscard]] bool supports_overlap(netlist::NetId a, netlist::NetId b) const;
  /// True when `net` transitively depends on `source` (a source net).
  [[nodiscard]] bool depends_on_source(netlist::NetId net, netlist::NetId source) const;

 private:
  NetworkModel(std::vector<NetworkNode> nodes, netlist::Graph graph)
      : nodes_(std::move(nodes)), graph_(std::move(graph)) {}

  std::vector<NetworkNode> nodes_;
  netlist::Graph graph_;
  std::vector<int> source_bit_;
  std::size_t words_ = 0;
  std::vector<std::vector<std::uint64_t>> support_;
};

}  // namespace rw::stress
