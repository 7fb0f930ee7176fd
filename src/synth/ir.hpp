#pragma once

/// \file ir.hpp
/// Technology-independent circuit IR ("RTL" input of the flow). Benchmark
/// generators build word-level logic out of these primitives; synthesis
/// decomposes, maps and optimizes it against a cell library. The IR carries
/// its own cycle-accurate functional simulator, which serves as the golden
/// model for equivalence checking and for the image-chain experiments.

#include <string>
#include <unordered_map>
#include <vector>

namespace rw::synth {

enum class Op {
  kInput,
  kConst0,
  kConst1,
  kNot,
  kAnd,
  kOr,
  kXor,
  kNand,
  kNor,
  kMux,   ///< mux(s, d0, d1): d0 when s=0, d1 when s=1
  kFlop,  ///< D flip-flop on the implicit global clock
};

struct IrNode {
  Op op = Op::kInput;
  int a = -1;
  int b = -1;
  int c = -1;
};

class Ir {
 public:
  int input(const std::string& name);
  int constant(bool value);
  int not_(int a);
  int and_(int a, int b);
  int or_(int a, int b);
  int xor_(int a, int b);
  int nand_(int a, int b);
  int nor_(int a, int b);
  int mux(int s, int d0, int d1);

  /// Creates a flop; D may be connected later (feedback loops).
  int flop(int d = -1);
  void connect_flop(int flop_node, int d);

  void output(const std::string& name, int node);

  [[nodiscard]] const std::vector<IrNode>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<std::pair<std::string, int>>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<std::pair<std::string, int>>& outputs() const {
    return outputs_;
  }

  /// \throws std::runtime_error if any flop is left unconnected.
  void validate() const;

 private:
  int add(Op op, int a = -1, int b = -1, int c = -1);
  void check(int node) const;

  std::vector<IrNode> nodes_;
  std::vector<std::pair<std::string, int>> inputs_;
  std::vector<std::pair<std::string, int>> outputs_;
};

/// Cycle-accurate functional evaluation of an IR (flops reset to 0).
class IrSimulator {
 public:
  explicit IrSimulator(const Ir& ir);

  void set_input(const std::string& name, bool value);
  /// Evaluates combinational logic; readable via output()/value().
  void evaluate();
  /// Rising clock edge (capture into flops).
  void clock_edge();
  void step() {
    evaluate();
    clock_edge();
  }

  [[nodiscard]] bool output(const std::string& name) const;
  [[nodiscard]] bool value(int node) const;
  void reset();

 private:
  const Ir& ir_;
  std::vector<bool> value_;
  std::vector<bool> flop_state_;          ///< per flop node (dense map below)
  std::vector<int> flop_index_;           ///< node -> flop_state_ index or -1
  std::vector<int> eval_order_;           ///< combinational topological order
  std::unordered_map<std::string, int> input_index_;
  std::unordered_map<std::string, int> output_index_;
};

}  // namespace rw::synth
