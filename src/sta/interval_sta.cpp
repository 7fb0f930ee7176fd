#include "sta/interval_sta.hpp"

#include <algorithm>
#include <stdexcept>

#include "flow/cancel.hpp"
#include "util/interp.hpp"

namespace rw::sta {

namespace {

constexpr int kRise = 0;
constexpr int kFall = 1;

/// Input edges that can cause the given output edge under an arc's sense
/// (bit0 = input rise, bit1 = input fall) — identical to scalar STA.
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

/// Interval delay/slew for one arc edge, hulled over an instance's
/// bracketing corner cells.
struct IntervalArcEdge {
  stress::RealInterval delay;
  stress::RealInterval slew;
  double interp_ps = 0.0;  ///< max certified widening applied per side
  bool valid = false;      ///< fresh cell characterizes this (pin, edge)
  bool vacuous = false;    ///< no usable corner: fresh-proxy numbers
};

/// Range of `table` over the slew × load query rectangle, widened per side
/// by the corner's certified interpolation bound scaled by the
/// extrapolation amplification; `clamp_floor` applies the scalar STA's
/// max(1, slew) floor.
stress::RealInterval widened_range(const util::Table2D& table, const stress::RealInterval& in_slew,
                                   const stress::RealInterval& load, double bound_ps,
                                   bool clamp_floor, double& interp_ps) {
  const util::TableRange r = util::table_range(table, in_slew.lo, in_slew.hi, load.lo, load.hi);
  const double widen = r.amp * bound_ps;
  if (widen > interp_ps) interp_ps = widen;
  stress::RealInterval out{r.lo - widen, r.hi + widen};
  if (clamp_floor) {
    out.lo = std::max(1.0, out.lo);
    out.hi = std::max(1.0, out.hi);
  }
  return out;
}

/// Hull over the bracketing corners of the (pin, output-edge) lookup. The
/// fresh cell is the structural reference: an edge it does not characterize
/// is skipped, like scalar STA skips it. When no corner resolves, the fresh
/// tables stand in numerically and the result is flagged vacuous.
IntervalArcEdge lookup_interval_arc_edge(const charlib::InstanceCorners& ic,
                                         const std::string& pin, bool out_rising,
                                         const stress::RealInterval& in_slew,
                                         const stress::RealInterval& load) {
  IntervalArcEdge e;
  const liberty::TimingArc* fresh_arc = ic.fresh->arc_from(pin);
  if (fresh_arc == nullptr) return e;
  const liberty::TimingTable& fresh_table = out_rising ? fresh_arc->rise : fresh_arc->fall;
  if (fresh_table.empty()) return e;
  e.valid = true;

  bool first = true;
  for (const liberty::Cell* cell : ic.corners) {
    const liberty::TimingArc* arc = cell->arc_from(pin);
    if (arc == nullptr) continue;
    const liberty::TimingTable& table = out_rising ? arc->rise : arc->fall;
    if (table.empty()) continue;
    const double bound = cell->interp.has_value() ? cell->interp->bound_ps : 0.0;
    const stress::RealInterval delay =
        widened_range(table.delay_ps, in_slew, load, bound, false, e.interp_ps);
    const stress::RealInterval slew =
        widened_range(table.out_slew_ps, in_slew, load, bound, true, e.interp_ps);
    if (first) {
      e.delay = delay;
      e.slew = slew;
      first = false;
    } else {
      e.delay = e.delay.hull(delay);
      e.slew = e.slew.hull(slew);
    }
  }
  if (first) {
    // Zero usable corners: propagate fresh numbers so downstream intervals
    // stay finite, but nothing is proven (PV003).
    e.vacuous = true;
    double unused = 0.0;
    e.delay = widened_range(fresh_table.delay_ps, in_slew, load, 0.0, false, unused);
    e.slew = widened_range(fresh_table.out_slew_ps, in_slew, load, 0.0, true, unused);
  }
  return e;
}

}  // namespace

IntervalSta::IntervalSta(const netlist::Module& module, const liberty::Library& fresh,
                         const std::vector<charlib::InstanceCorners>& corners, StaOptions options)
    : module_(module),
      fresh_(fresh),
      corners_(corners),
      options_(options),
      graph_(module, fresh) {
  graph_.require_acyclic("IntervalSta");
  if (corners_.size() != module.instances().size()) {
    throw std::runtime_error("IntervalSta: corners not aligned with instances");
  }
  for (std::size_t i = 0; i < corners_.size(); ++i) {
    if (corners_[i].fresh == nullptr) {
      throw std::runtime_error("IntervalSta: null fresh cell for instance " +
                               module.instances()[i].name);
    }
    // A *partial* bracket proves nothing either: without every extreme
    // corner the hull does not bound the instance's λ interval.
    if (corners_[i].corners.empty() || corners_[i].missing > 0) {
      vacuous_instances_.push_back(static_cast<int>(i));
    }
  }
  net_timing_.assign(static_cast<std::size_t>(module.net_count()), NetIntervalTiming{});
  compute_loads();
  propagate();
  compute_endpoints();
}

void IntervalSta::compute_loads() {
  // Mirrors sta::net_load_ff term by term (and in the same accumulation
  // order, so a single-corner run collapses to the scalar loads bitwise);
  // each sink pin cap becomes the [min, max] over the sink's corner cells.
  load_ff_.assign(static_cast<std::size_t>(module_.net_count()), stress::RealInterval{});
  for (netlist::NetId net = 0; net < module_.net_count(); ++net) {
    stress::RealInterval load{0.0, 0.0};
    for (const netlist::PinUse use : graph_.fanout().sinks(net)) {
      const auto p = static_cast<std::size_t>(use.pin);
      const charlib::InstanceCorners& ic = corners_[static_cast<std::size_t>(use.instance)];
      double cap_lo = 0.0;
      double cap_hi = 0.0;
      bool first = true;
      for (const liberty::Cell* cell : ic.corners) {
        const double cap = cell->input_pin(p).cap_ff;
        if (first) {
          cap_lo = cap;
          cap_hi = cap;
          first = false;
        } else {
          cap_lo = std::min(cap_lo, cap);
          cap_hi = std::max(cap_hi, cap);
        }
      }
      if (first) {  // vacuous instance: fresh pin cap as proxy
        cap_lo = ic.fresh->input_pin(p).cap_ff;
        cap_hi = cap_lo;
      }
      load.lo += cap_lo;
      load.hi += cap_hi;
    }
    for (int k = 0; k < graph_.fanout().po_uses(net); ++k) {
      load.lo += options_.po_load_ff;
      load.hi += options_.po_load_ff;
    }
    const int fanout = graph_.fanout().count(net);
    load.lo += options_.wire_cap_per_fanout_ff * fanout;
    load.hi += options_.wire_cap_per_fanout_ff * fanout;
    load_ff_[static_cast<std::size_t>(net)] = load;
  }
}

void IntervalSta::propagate() {
  // Start points: primary inputs (arrival 0, point slew)...
  for (netlist::NetId pi : module_.inputs()) {
    auto& t = net_timing_[static_cast<std::size_t>(pi)];
    for (int e : {kRise, kFall}) {
      t.arrival[e] = stress::RealInterval::point(0.0);
      t.slew[e] = stress::RealInterval::point(options_.input_slew_ps);
    }
  }
  // ...and flop outputs (CK->Q arc at clock slew).
  const auto& instances = module_.instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (!graph_.is_flop(i)) continue;
    const auto& inst = instances[i];
    const charlib::InstanceCorners& ic = corners_[i];
    if (ic.fresh->arc_from("CK") == nullptr) {
      throw std::runtime_error("IntervalSta: flop " + inst.cell + " has no CK arc");
    }
    auto& t = net_timing_[static_cast<std::size_t>(inst.out)];
    const stress::RealInterval& load = load_ff_[static_cast<std::size_t>(inst.out)];
    const stress::RealInterval ck_slew = stress::RealInterval::point(options_.input_slew_ps);
    for (int e : {kRise, kFall}) {
      const IntervalArcEdge edge = lookup_interval_arc_edge(ic, "CK", e == kRise, ck_slew, load);
      if (!edge.valid) {
        throw std::runtime_error("IntervalSta: flop " + inst.cell + " CK arc has no table");
      }
      t.arrival[e] = edge.delay;
      t.slew[e] = edge.slew;
      t.from_instance[e] = -1;  // flop Q is a start point for path tracing
      t.edge_width_ps[e] = edge.delay.width();
      t.edge_interp_ps[e] = edge.interp_ps;
      t.vacuous[e] = edge.vacuous || ic.missing > 0;
    }
  }

  // Propagate through combinational instances in topological order. The
  // traversal is serial and mirrors sta::Sta::propagate exactly; on point
  // inputs with one corner per instance the arithmetic collapses to the
  // scalar pass bitwise.
  struct Cand {
    double arrival_lo;
    double arrival_hi;
    stress::RealInterval slew;
    bool vacuous;
  };
  std::vector<Cand> cands[2];
  std::size_t visited = 0;
  for (const int idx : graph_.order()) {
    if ((++visited & 0xFFU) == 0U) flow::throw_if_cancelled();
    const auto& inst = instances[static_cast<std::size_t>(idx)];
    const charlib::InstanceCorners& ic = corners_[static_cast<std::size_t>(idx)];
    const bool inst_vacuous = ic.corners.empty() || ic.missing > 0;
    const stress::RealInterval& load = load_ff_[static_cast<std::size_t>(inst.out)];
    auto& out_t = net_timing_[static_cast<std::size_t>(inst.out)];
    cands[kRise].clear();
    cands[kFall].clear();

    for (std::size_t p = 0; p < inst.fanin.size(); ++p) {
      const liberty::TimingArc* arc = ic.fresh->arc_from(ic.fresh->input_pin(p).name);
      if (arc == nullptr) continue;
      const auto& in_t = net_timing_[static_cast<std::size_t>(inst.fanin[p])];
      for (const bool out_rising : {true, false}) {
        const liberty::TimingTable& table = out_rising ? arc->rise : arc->fall;
        if (table.empty()) continue;
        const unsigned in_edges = contributing_input_edges(arc->sense, out_rising);
        for (int ie : {kRise, kFall}) {
          if ((in_edges & (ie == kRise ? 0b01U : 0b10U)) == 0U) continue;
          if (in_t.arrival[ie].hi == kNeverArrives) continue;
          const IntervalArcEdge edge =
              lookup_interval_arc_edge(ic, arc->related_pin, out_rising, in_t.slew[ie], load);
          const double arrival_hi = in_t.arrival[ie].hi + edge.delay.hi;
          const double arrival_lo = in_t.arrival[ie].lo + edge.delay.lo;
          const int oe = out_rising ? kRise : kFall;
          cands[oe].push_back(Cand{arrival_lo, arrival_hi, edge.slew,
                                   inst_vacuous || edge.vacuous || in_t.vacuous[ie]});
          // Upper-bound winner: same strict comparison (first wins ties) as
          // the scalar pass, so backpointers match under collapse.
          if (arrival_hi > out_t.arrival[oe].hi) {
            out_t.arrival[oe].hi = arrival_hi;
            out_t.from_instance[oe] = idx;
            out_t.from_pin[oe] = static_cast<int>(p);
            out_t.from_in_rising[oe] = (ie == kRise);
            out_t.edge_width_ps[oe] = edge.delay.width();
            out_t.edge_interp_ps[oe] = edge.interp_ps;
          }
        }
      }
    }

    // Lower bound is the max of candidate lower bounds; the output slew
    // hulls every candidate that can still realize the max (upper bound not
    // dominated by the best lower bound), which contains the true winner.
    for (int oe : {kRise, kFall}) {
      if (cands[oe].empty()) continue;
      double best_lo = kNeverArrives;
      bool vac = false;
      for (const Cand& c : cands[oe]) {
        if (c.arrival_lo > best_lo) best_lo = c.arrival_lo;
        vac = vac || c.vacuous;
      }
      out_t.arrival[oe].lo = best_lo;
      out_t.vacuous[oe] = vac;
      bool first = true;
      for (const Cand& c : cands[oe]) {
        if (c.arrival_hi < best_lo) continue;
        if (first) {
          out_t.slew[oe] = c.slew;
          first = false;
        } else {
          out_t.slew[oe] = out_t.slew[oe].hull(c.slew);
        }
      }
    }
  }
}

void IntervalSta::compute_endpoints() {
  const auto add_endpoint = [&](netlist::NetId net, bool is_flop_d, int flop_inst,
                                const stress::RealInterval& setup_ps, bool setup_vacuous) {
    const auto& t = net_timing_[static_cast<std::size_t>(net)];
    const bool has_rise = t.arrival[kRise].hi != kNeverArrives;
    const bool has_fall = t.arrival[kFall].hi != kNeverArrives;
    if (!has_rise && !has_fall) return;
    IntervalEndpoint ep;
    ep.net = net;
    ep.is_flop_d = is_flop_d;
    ep.flop_instance = flop_inst;
    ep.setup_ps = setup_ps;
    ep.rising = t.arrival[kRise].hi >= t.arrival[kFall].hi;
    if (has_rise && has_fall) {
      ep.arrival_ps = stress::RealInterval{std::max(t.arrival[kRise].lo, t.arrival[kFall].lo),
                                           std::max(t.arrival[kRise].hi, t.arrival[kFall].hi)};
      ep.vacuous = t.vacuous[kRise] || t.vacuous[kFall];
    } else {
      const int e = has_rise ? kRise : kFall;
      ep.arrival_ps = t.arrival[e];
      ep.vacuous = t.vacuous[e];
    }
    ep.vacuous = ep.vacuous || setup_vacuous;
    endpoints_.push_back(ep);
  };

  for (netlist::NetId po : module_.outputs()) {
    add_endpoint(po, false, -1, stress::RealInterval{}, false);
  }
  const auto& instances = module_.instances();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (!graph_.is_flop(i)) continue;
    const charlib::InstanceCorners& ic = corners_[i];
    // Setup over the flop's bracket corners, widened by the certified
    // interpolation bound (amp = 1: setup is a direct entry, not a lookup).
    stress::RealInterval setup;
    bool setup_vacuous = false;
    bool first = true;
    for (const liberty::Cell* cell : ic.corners) {
      const double bound = cell->interp.has_value() ? cell->interp->bound_ps : 0.0;
      const stress::RealInterval s{cell->setup_ps - bound, cell->setup_ps + bound};
      setup = first ? s : setup.hull(s);
      first = false;
    }
    if (first) {
      setup = stress::RealInterval::point(ic.fresh->setup_ps);
      setup_vacuous = true;
    }
    setup_vacuous = setup_vacuous || ic.missing > 0;
    // Pin order of DFF is {D, CK}; endpoint is the D net.
    add_endpoint(instances[i].fanin[0], true, static_cast<int>(i), setup, setup_vacuous);
  }
  std::sort(endpoints_.begin(), endpoints_.end(),
            [](const IntervalEndpoint& a, const IntervalEndpoint& b) {
              const stress::RealInterval ca = a.cost_ps();
              const stress::RealInterval cb = b.cost_ps();
              if (ca.hi != cb.hi) return ca.hi > cb.hi;
              if (ca.lo != cb.lo) return ca.lo > cb.lo;
              return a.net < b.net;
            });
}

const NetIntervalTiming& IntervalSta::timing(netlist::NetId net) const {
  return net_timing_[static_cast<std::size_t>(net)];
}

const stress::RealInterval& IntervalSta::load_ff(netlist::NetId net) const {
  return load_ff_[static_cast<std::size_t>(net)];
}

stress::RealInterval IntervalSta::critical_interval_ps() const {
  if (endpoints_.empty()) {
    throw std::runtime_error("IntervalSta::critical_interval_ps: no endpoints");
  }
  stress::RealInterval cp = endpoints_.front().cost_ps();
  // The sort fixes hi = front's hi; lo is the max over ALL endpoints (the
  // true critical path could be any endpoint whose upper bound reaches it).
  for (const IntervalEndpoint& ep : endpoints_) {
    cp.lo = std::max(cp.lo, ep.cost_ps().lo);
  }
  return cp;
}

bool IntervalSta::vacuous() const {
  if (!vacuous_instances_.empty()) return true;
  for (const IntervalEndpoint& ep : endpoints_) {
    if (ep.vacuous) return true;
  }
  return false;
}

std::vector<PathBlame> IntervalSta::blame() const {
  std::vector<PathBlame> path;
  if (endpoints_.empty()) return path;
  const IntervalEndpoint& top = endpoints_.front();
  netlist::NetId net = top.net;
  int e = top.rising ? kRise : kFall;
  const auto& instances = module_.instances();
  while (true) {
    const NetIntervalTiming& t = net_timing_[static_cast<std::size_t>(net)];
    const int inst = t.from_instance[e];
    if (inst < 0) break;
    const auto& instance = instances[static_cast<std::size_t>(inst)];
    PathBlame b;
    b.instance = instance.name;
    b.cell = instance.cell;
    b.pin = corners_[static_cast<std::size_t>(inst)]
                .fresh->input_pin(static_cast<std::size_t>(t.from_pin[e]))
                .name;
    b.width_ps = t.edge_width_ps[e];
    b.interp_ps = t.edge_interp_ps[e];
    path.push_back(std::move(b));
    net = instance.fanin[static_cast<std::size_t>(t.from_pin[e])];
    e = t.from_in_rising[e] ? kRise : kFall;
  }
  std::stable_sort(path.begin(), path.end(),
                   [](const PathBlame& a, const PathBlame& b) { return a.width_ps > b.width_ps; });
  return path;
}

ProveSummary IntervalSta::summarize(double fresh_cp_ps) const {
  ProveSummary s;
  s.fresh_cp_ps = fresh_cp_ps;
  s.aged_cp_ps = critical_interval_ps();
  s.vacuous = vacuous();
  for (const int i : vacuous_instances_) {
    s.vacuous_instances.push_back(module_.instances()[static_cast<std::size_t>(i)].name);
  }
  s.blame = blame();
  return s;
}

}  // namespace rw::sta
