#include "logicsim/timingsim.hpp"

#include <stdexcept>

#include "logicsim/value.hpp"

namespace rw::logicsim {

TimingSimulator::TimingSimulator(const netlist::Module& module, const liberty::Library& library,
                                 const netlist::DelayAnnotation& annotation, double period_ps)
    : module_(module),
      library_(library),
      annotation_(annotation),
      period_ps_(period_ps),
      graph_(module, library) {
  graph_.require_acyclic("TimingSimulator");
  if (period_ps <= 0.0) throw std::invalid_argument("TimingSimulator: period must be positive");
  const auto n_nets = static_cast<std::size_t>(module.net_count());
  net_value_.assign(n_nets, false);
  sampled_value_.assign(n_nets, false);
  pending_input_.assign(n_nets, false);
  has_pending_input_.assign(n_nets, false);
  truth_.assign(module.instances().size(), 0);
  last_scheduled_.assign(module.instances().size(), false);
  net_version_.assign(n_nets, 0);
  for (std::size_t i = 0; i < module.instances().size(); ++i) {
    const liberty::Cell& cell = library.at(module.instances()[i].cell);
    if (cell.is_flop) {
      flop_instances_.push_back(static_cast<int>(i));
    } else {
      truth_[i] = cell.truth;
    }
  }
  flop_state_.assign(flop_instances_.size(), false);
  reset();
}

void TimingSimulator::reset() {
  queue_ = {};
  now_ps_ = 0.0;
  seq_ = 0;
  std::fill(net_value_.begin(), net_value_.end(), false);
  std::fill(flop_state_.begin(), flop_state_.end(), false);
  std::fill(has_pending_input_.begin(), has_pending_input_.end(), false);

  // Zero-delay settle of the initial state.
  for (std::size_t f = 0; f < flop_instances_.size(); ++f) {
    const auto& inst = module_.instances()[static_cast<std::size_t>(flop_instances_[f])];
    net_value_[static_cast<std::size_t>(inst.out)] = flop_state_[f];
  }
  bool pins[8];
  for (const int idx : graph_.order()) {
    const auto& inst = module_.instances()[static_cast<std::size_t>(idx)];
    for (std::size_t p = 0; p < inst.fanin.size(); ++p) {
      pins[p] = net_value_[static_cast<std::size_t>(inst.fanin[p])];
    }
    const bool out = eval_truth(truth_[static_cast<std::size_t>(idx)],
                                pack_pattern(pins, static_cast<unsigned>(inst.fanin.size())));
    net_value_[static_cast<std::size_t>(inst.out)] = out;
    last_scheduled_[static_cast<std::size_t>(idx)] = out;
  }
  sampled_value_ = net_value_;
}

void TimingSimulator::set_input(netlist::NetId net, bool value) {
  if (!module_.is_input(net)) {
    throw std::invalid_argument("TimingSimulator::set_input: not a primary input");
  }
  pending_input_[static_cast<std::size_t>(net)] = value;
  has_pending_input_[static_cast<std::size_t>(net)] = true;
}

void TimingSimulator::schedule(double t_ps, netlist::NetId net, bool value) {
  // Inertial delay: a newly scheduled transition supersedes any pending one
  // on the same net (narrow glitches at a gate's output are swallowed, and
  // a later re-evaluation always wins).
  const long version = ++net_version_[static_cast<std::size_t>(net)];
  queue_.push(Event{t_ps, seq_++, net, value, version});
}

void TimingSimulator::evaluate_sinks(netlist::NetId net, double t_ps) {
  for (const netlist::PinUse use : graph_.fanout().sinks(net)) {
    const int sink = use.instance;
    if (graph_.is_flop(static_cast<std::size_t>(sink))) continue;  // flops sample at edges only
    const auto& inst = module_.instances()[static_cast<std::size_t>(sink)];
    bool pins[8];
    int cause_pin = -1;
    for (std::size_t p = 0; p < inst.fanin.size(); ++p) {
      pins[p] = net_value_[static_cast<std::size_t>(inst.fanin[p])];
      if (inst.fanin[p] == net) cause_pin = static_cast<int>(p);
    }
    const bool out = eval_truth(truth_[static_cast<std::size_t>(sink)],
                                pack_pattern(pins, static_cast<unsigned>(inst.fanin.size())));
    if (out == last_scheduled_[static_cast<std::size_t>(sink)]) continue;
    last_scheduled_[static_cast<std::size_t>(sink)] = out;
    const auto& d = annotation_.arcs[static_cast<std::size_t>(sink)]
                                    [static_cast<std::size_t>(cause_pin)];
    const double delay = out ? d.out_rise_ps : d.out_fall_ps;
    schedule(t_ps + delay, inst.out, out);
  }
}

void TimingSimulator::process_until(double t_ps) {
  while (!queue_.empty() && queue_.top().t_ps < t_ps) {
    const Event ev = queue_.top();
    queue_.pop();
    if (ev.version != net_version_[static_cast<std::size_t>(ev.net)]) continue;  // superseded
    if (net_value_[static_cast<std::size_t>(ev.net)] == ev.value) continue;
    net_value_[static_cast<std::size_t>(ev.net)] = ev.value;
    evaluate_sinks(ev.net, ev.t_ps);
  }
}

void TimingSimulator::run_cycle() {
  const double edge = now_ps_;            // inputs/flop outputs change here
  const double next_edge = edge + period_ps_;

  // Apply pending primary-input changes at the edge.
  for (netlist::NetId pi : module_.inputs()) {
    const auto i = static_cast<std::size_t>(pi);
    if (!has_pending_input_[i]) continue;
    has_pending_input_[i] = false;
    if (net_value_[i] != pending_input_[i]) {
      net_value_[i] = pending_input_[i];
      evaluate_sinks(pi, edge);
    }
  }
  // Flop outputs transition after CK->Q delay.
  for (std::size_t f = 0; f < flop_instances_.size(); ++f) {
    const auto fi = static_cast<std::size_t>(flop_instances_[f]);
    const auto& inst = module_.instances()[fi];
    const bool q = flop_state_[f];
    if (net_value_[static_cast<std::size_t>(inst.out)] != q) {
      // CK pin is index 1 of {D, CK}; its annotation holds the CK->Q delay.
      const auto& d = annotation_.arcs[fi][1];
      schedule(edge + (q ? d.out_rise_ps : d.out_fall_ps), inst.out, q);
    }
  }

  // Propagate until (just before) the next edge, then sample and capture.
  process_until(next_edge);
  sampled_value_ = net_value_;
  for (std::size_t f = 0; f < flop_instances_.size(); ++f) {
    const auto& inst = module_.instances()[static_cast<std::size_t>(flop_instances_[f])];
    flop_state_[f] = net_value_[static_cast<std::size_t>(inst.fanin[0])];  // D at the edge
  }
  now_ps_ = next_edge;
}

bool TimingSimulator::sampled(netlist::NetId net) const {
  return sampled_value_[static_cast<std::size_t>(net)];
}

}  // namespace rw::logicsim
