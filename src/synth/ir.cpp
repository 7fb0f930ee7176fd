#include "synth/ir.hpp"

#include <stdexcept>

namespace rw::synth {

int Ir::add(Op op, int a, int b, int c) {
  nodes_.push_back(IrNode{op, a, b, c});
  return static_cast<int>(nodes_.size() - 1);
}

void Ir::check(int node) const {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) {
    throw std::out_of_range("Ir: invalid node reference");
  }
}

int Ir::input(const std::string& name) {
  const int id = add(Op::kInput);
  inputs_.emplace_back(name, id);
  return id;
}

int Ir::constant(bool value) { return add(value ? Op::kConst1 : Op::kConst0); }

int Ir::not_(int a) {
  check(a);
  return add(Op::kNot, a);
}
int Ir::and_(int a, int b) {
  check(a);
  check(b);
  return add(Op::kAnd, a, b);
}
int Ir::or_(int a, int b) {
  check(a);
  check(b);
  return add(Op::kOr, a, b);
}
int Ir::xor_(int a, int b) {
  check(a);
  check(b);
  return add(Op::kXor, a, b);
}
int Ir::nand_(int a, int b) {
  check(a);
  check(b);
  return add(Op::kNand, a, b);
}
int Ir::nor_(int a, int b) {
  check(a);
  check(b);
  return add(Op::kNor, a, b);
}
int Ir::mux(int s, int d0, int d1) {
  check(s);
  check(d0);
  check(d1);
  return add(Op::kMux, s, d0, d1);
}

int Ir::flop(int d) {
  if (d >= 0) check(d);
  return add(Op::kFlop, d);
}

void Ir::connect_flop(int flop_node, int d) {
  check(flop_node);
  check(d);
  if (nodes_[static_cast<std::size_t>(flop_node)].op != Op::kFlop) {
    throw std::invalid_argument("Ir::connect_flop: node is not a flop");
  }
  nodes_[static_cast<std::size_t>(flop_node)].a = d;
}

void Ir::output(const std::string& name, int node) {
  check(node);
  outputs_.emplace_back(name, node);
}

void Ir::validate() const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].op == Op::kFlop && nodes_[i].a < 0) {
      throw std::runtime_error("Ir::validate: flop node " + std::to_string(i) + " unconnected");
    }
  }
}

IrSimulator::IrSimulator(const Ir& ir) : ir_(ir) {
  ir.validate();
  const auto& nodes = ir.nodes();
  value_.assign(nodes.size(), false);
  flop_index_.assign(nodes.size(), -1);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].op == Op::kFlop) {
      flop_index_[i] = static_cast<int>(flop_state_.size());
      flop_state_.push_back(false);
    }
  }
  // Nodes are created fanin-first (except flop feedback, cut by state), so
  // index order is a valid combinational evaluation order.
  eval_order_.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    eval_order_.push_back(static_cast<int>(i));
  }
  for (const auto& [name, node] : ir.inputs()) input_index_[name] = node;
  for (const auto& [name, node] : ir.outputs()) output_index_[name] = node;
}

void IrSimulator::set_input(const std::string& name, bool value) {
  const auto it = input_index_.find(name);
  if (it == input_index_.end()) {
    throw std::out_of_range("IrSimulator::set_input: no input " + name);
  }
  value_[static_cast<std::size_t>(it->second)] = value;
}

void IrSimulator::evaluate() {
  const auto& nodes = ir_.nodes();
  for (const int id : eval_order_) {
    const auto& n = nodes[static_cast<std::size_t>(id)];
    const auto i = static_cast<std::size_t>(id);
    switch (n.op) {
      case Op::kInput:
        break;  // set externally
      case Op::kConst0:
        value_[i] = false;
        break;
      case Op::kConst1:
        value_[i] = true;
        break;
      case Op::kNot:
        value_[i] = !value_[static_cast<std::size_t>(n.a)];
        break;
      case Op::kAnd:
        value_[i] = value_[static_cast<std::size_t>(n.a)] && value_[static_cast<std::size_t>(n.b)];
        break;
      case Op::kOr:
        value_[i] = value_[static_cast<std::size_t>(n.a)] || value_[static_cast<std::size_t>(n.b)];
        break;
      case Op::kXor:
        value_[i] = value_[static_cast<std::size_t>(n.a)] != value_[static_cast<std::size_t>(n.b)];
        break;
      case Op::kNand:
        value_[i] =
            !(value_[static_cast<std::size_t>(n.a)] && value_[static_cast<std::size_t>(n.b)]);
        break;
      case Op::kNor:
        value_[i] =
            !(value_[static_cast<std::size_t>(n.a)] || value_[static_cast<std::size_t>(n.b)]);
        break;
      case Op::kMux:
        value_[i] = value_[static_cast<std::size_t>(n.a)]
                        ? value_[static_cast<std::size_t>(n.c)]
                        : value_[static_cast<std::size_t>(n.b)];
        break;
      case Op::kFlop:
        value_[i] = flop_state_[static_cast<std::size_t>(flop_index_[i])];
        break;
    }
  }
}

void IrSimulator::clock_edge() {
  const auto& nodes = ir_.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].op == Op::kFlop) {
      flop_state_[static_cast<std::size_t>(flop_index_[i])] =
          value_[static_cast<std::size_t>(nodes[i].a)];
    }
  }
}

bool IrSimulator::output(const std::string& name) const {
  const auto it = output_index_.find(name);
  if (it == output_index_.end()) {
    throw std::out_of_range("IrSimulator::output: no output " + name);
  }
  return value_[static_cast<std::size_t>(it->second)];
}

bool IrSimulator::value(int node) const { return value_[static_cast<std::size_t>(node)]; }

void IrSimulator::reset() {
  std::fill(value_.begin(), value_.end(), false);
  std::fill(flop_state_.begin(), flop_state_.end(), false);
}

}  // namespace rw::synth
