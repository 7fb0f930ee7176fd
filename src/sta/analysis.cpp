#include "sta/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "flow/cancel.hpp"

namespace rw::sta {

namespace {

constexpr int kRise = 0;
constexpr int kFall = 1;

/// Input edges that can cause the given output edge under an arc's sense.
/// Returns a bitmask: bit0 = input rise contributes, bit1 = input fall.
unsigned contributing_input_edges(liberty::TimingSense sense, bool out_rising) {
  switch (sense) {
    case liberty::TimingSense::kPositiveUnate:
      return out_rising ? 0b01U : 0b10U;
    case liberty::TimingSense::kNegativeUnate:
      return out_rising ? 0b10U : 0b01U;
    case liberty::TimingSense::kNonUnate:
      return 0b11U;
  }
  return 0b11U;
}

/// A net's load in its one accumulation order (IntervalSta::compute_loads
/// mirrors it): sink pin caps in fanout order, the PO loads, then the
/// wire-load model. `cell_of(instance)` names each sink's cell.
template <class CellOf>
double accumulate_load(const StaOptions& options, const netlist::Fanout& fanout,
                       netlist::NetId net, const CellOf& cell_of) {
  double load = 0.0;
  for (const netlist::PinUse use : fanout.sinks(net)) {
    load += cell_of(use.instance).input_pin(static_cast<std::size_t>(use.pin)).cap_ff;
  }
  for (int k = 0; k < fanout.po_uses(net); ++k) load += options.po_load_ff;
  load += options.wire_cap_per_fanout_ff * fanout.count(net);
  return load;
}

}  // namespace

double net_load_ff(const netlist::Module& module, const liberty::Library& library,
                   const StaOptions& options, const netlist::Fanout& fanout,
                   netlist::NetId net) {
  return accumulate_load(options, fanout, net, [&](std::int32_t instance) -> const auto& {
    return library.at(module.instances()[static_cast<std::size_t>(instance)].cell);
  });
}

ArcEdge lookup_arc_edge(const liberty::TimingArc& arc, bool out_rising, double in_slew_ps,
                        double load_ff) {
  const liberty::TimingTable& table = out_rising ? arc.rise : arc.fall;
  if (table.empty()) {
    throw std::runtime_error("lookup_arc_edge: arc from " + arc.related_pin +
                             " has no table for this output edge");
  }
  ArcEdge e;
  e.delay_ps = table.delay_ps.lookup(in_slew_ps, load_ff);
  e.out_slew_ps = std::max(1.0, table.out_slew_ps.lookup(in_slew_ps, load_ff));
  return e;
}

Sta::Sta(const netlist::Module& module, const liberty::Library& library, StaOptions options)
    : module_(module),
      library_(library),
      options_(options),
      graph_(module, library) {
  graph_.require_acyclic("Sta");
  cells_.reserve(module.instances().size());
  for (const netlist::Instance& inst : module.instances()) cells_.push_back(&library.at(inst.cell));
  const auto n_nets = static_cast<std::size_t>(module.net_count());
  load_ff_.resize(n_nets);
  for (netlist::NetId n = 0; n < module.net_count(); ++n) {
    load_ff_[static_cast<std::size_t>(n)] =
        accumulate_load(options_, graph_.fanout(), n, [&](std::int32_t instance) -> const auto& {
          return *cells_[static_cast<std::size_t>(instance)];
        });
  }
  net_timing_.assign(n_nets, NetTiming{});
  propagate();
  compute_endpoints();
  compute_required();
}

void Sta::compute_required() {
  const auto n_nets = static_cast<std::size_t>(module_.net_count());
  required_ps_.assign(2 * n_nets, std::numeric_limits<double>::infinity());
  if (endpoints_.empty()) return;
  const double target = endpoints_.front().cost_ps();
  for (const auto& ep : endpoints_) {
    const auto i = static_cast<std::size_t>(ep.net);
    required_ps_[2 * i + kRise] = std::min(required_ps_[2 * i + kRise], target - ep.setup_ps);
    required_ps_[2 * i + kFall] = std::min(required_ps_[2 * i + kFall], target - ep.setup_ps);
  }
  const auto& instances = module_.instances();
  const auto order = graph_.order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const auto& inst = instances[static_cast<std::size_t>(*it)];
    const liberty::Cell& cell = *cells_[static_cast<std::size_t>(*it)];
    const double load = load_ff_[static_cast<std::size_t>(inst.out)];
    const auto out_i = static_cast<std::size_t>(inst.out);
    for (std::size_t p = 0; p < inst.fanin.size(); ++p) {
      const liberty::TimingArc* arc = cell.arc_from(cell.input_pin(p).name);
      if (arc == nullptr) continue;
      const auto& in_t = net_timing_[static_cast<std::size_t>(inst.fanin[p])];
      const auto in_i = static_cast<std::size_t>(inst.fanin[p]);
      for (const bool out_rising : {true, false}) {
        const liberty::TimingTable& table = out_rising ? arc->rise : arc->fall;
        if (table.empty()) continue;
        const int oe = out_rising ? kRise : kFall;
        if (!std::isfinite(required_ps_[2 * out_i + oe])) continue;
        const unsigned in_edges = contributing_input_edges(arc->sense, out_rising);
        for (int ie : {kRise, kFall}) {
          if ((in_edges & (ie == kRise ? 0b01U : 0b10U)) == 0U) continue;
          if (in_t.arrival_ps[ie] == kNeverArrives) continue;
          const ArcEdge edge = lookup_arc_edge(*arc, out_rising, in_t.slew_ps[ie], load);
          required_ps_[2 * in_i + ie] =
              std::min(required_ps_[2 * in_i + ie], required_ps_[2 * out_i + oe] - edge.delay_ps);
        }
      }
    }
  }
}

double Sta::slack_ps(netlist::NetId net) const {
  const auto i = static_cast<std::size_t>(net);
  const auto& t = net_timing_[i];
  double slack = std::numeric_limits<double>::infinity();
  for (int e : {kRise, kFall}) {
    if (t.arrival_ps[e] == kNeverArrives) continue;
    slack = std::min(slack, required_ps_[2 * i + e] - t.arrival_ps[e]);
  }
  return slack;
}

void Sta::propagate() {
  // Start points: primary inputs (arrival 0, default slew)...
  for (netlist::NetId pi : module_.inputs()) {
    auto& t = net_timing_[static_cast<std::size_t>(pi)];
    for (int e : {kRise, kFall}) {
      t.arrival_ps[e] = 0.0;
      t.slew_ps[e] = options_.input_slew_ps;
    }
  }
  // ...and flop outputs (CK->Q arc at clock slew).
  const auto& instances = module_.instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (!graph_.is_flop(i)) continue;
    const auto& inst = instances[i];
    const liberty::Cell& cell = *cells_[i];
    const liberty::TimingArc* arc = cell.arc_from("CK");
    if (arc == nullptr) {
      throw std::runtime_error("Sta: flop " + inst.cell + " has no CK arc");
    }
    auto& t = net_timing_[static_cast<std::size_t>(inst.out)];
    const double load = load_ff_[static_cast<std::size_t>(inst.out)];
    for (int e : {kRise, kFall}) {
      const ArcEdge edge = lookup_arc_edge(*arc, e == kRise, options_.input_slew_ps, load);
      t.arrival_ps[e] = edge.delay_ps;
      t.slew_ps[e] = edge.out_slew_ps;
      t.from_instance[e] = -1;  // flop Q is a start point for path tracing
    }
  }

  // Propagate through combinational instances in topological order.
  std::size_t visited = 0;
  for (const int idx : graph_.order()) {
    // Cancellation poll, amortized: large designs make propagate() the
    // longest serial section between parallel regions.
    if ((++visited & 0xFFU) == 0U) flow::throw_if_cancelled();
    const auto& inst = instances[static_cast<std::size_t>(idx)];
    const liberty::Cell& cell = *cells_[static_cast<std::size_t>(idx)];
    const double load = load_ff_[static_cast<std::size_t>(inst.out)];
    auto& out_t = net_timing_[static_cast<std::size_t>(inst.out)];

    for (std::size_t p = 0; p < inst.fanin.size(); ++p) {
      const liberty::TimingArc* arc = cell.arc_from(cell.input_pin(p).name);
      if (arc == nullptr) continue;
      const auto& in_t = net_timing_[static_cast<std::size_t>(inst.fanin[p])];
      for (const bool out_rising : {true, false}) {
        const liberty::TimingTable& table = out_rising ? arc->rise : arc->fall;
        if (table.empty()) continue;
        const unsigned in_edges = contributing_input_edges(arc->sense, out_rising);
        for (int ie : {kRise, kFall}) {
          if ((in_edges & (ie == kRise ? 0b01U : 0b10U)) == 0U) continue;
          if (in_t.arrival_ps[ie] == kNeverArrives) continue;
          const ArcEdge edge = lookup_arc_edge(*arc, out_rising, in_t.slew_ps[ie], load);
          const double arrival = in_t.arrival_ps[ie] + edge.delay_ps;
          const int oe = out_rising ? kRise : kFall;
          if (arrival > out_t.arrival_ps[oe]) {
            out_t.arrival_ps[oe] = arrival;
            out_t.slew_ps[oe] = edge.out_slew_ps;
            out_t.from_instance[oe] = idx;
            out_t.from_pin[oe] = static_cast<int>(p);
            out_t.from_in_rising[oe] = (ie == kRise);
          }
        }
      }
    }
  }
}

void Sta::compute_endpoints() {
  const auto add_endpoint = [&](netlist::NetId net, bool is_flop_d, int flop_inst,
                                double setup_ps) {
    const auto& t = net_timing_[static_cast<std::size_t>(net)];
    if (t.arrival_ps[kRise] == kNeverArrives && t.arrival_ps[kFall] == kNeverArrives) return;
    Endpoint ep;
    ep.net = net;
    ep.is_flop_d = is_flop_d;
    ep.flop_instance = flop_inst;
    ep.setup_ps = setup_ps;
    ep.rising = t.arrival_ps[kRise] >= t.arrival_ps[kFall];
    ep.arrival_ps = std::max(t.arrival_ps[kRise], t.arrival_ps[kFall]);
    endpoints_.push_back(ep);
  };

  for (netlist::NetId po : module_.outputs()) add_endpoint(po, false, -1, 0.0);
  const auto& instances = module_.instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (!graph_.is_flop(i)) continue;
    // Pin order of DFF is {D, CK}; endpoint is the D net.
    add_endpoint(instances[i].fanin[0], true, static_cast<int>(i), cells_[i]->setup_ps);
  }
  std::sort(endpoints_.begin(), endpoints_.end(),
            [](const Endpoint& a, const Endpoint& b) { return a.cost_ps() > b.cost_ps(); });
}

const NetTiming& Sta::timing(netlist::NetId net) const {
  return net_timing_[static_cast<std::size_t>(net)];
}

double Sta::load_ff(netlist::NetId net) const { return load_ff_[static_cast<std::size_t>(net)]; }

double Sta::critical_delay_ps() const {
  if (endpoints_.empty()) throw std::runtime_error("Sta::critical_delay_ps: no endpoints");
  return endpoints_.front().cost_ps();
}

}  // namespace rw::sta
