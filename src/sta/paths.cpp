#include "sta/paths.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace rw::sta {

std::string TimingPath::report(const netlist::Module& module) const {
  std::ostringstream os;
  for (const auto& step : steps) {
    os.setf(std::ios::fixed);
    os.precision(1);
    if (step.instance >= 0) {
      const auto& inst = module.instances()[static_cast<std::size_t>(step.instance)];
      os << "  " << inst.name << " (" << inst.cell << ")";
    } else {
      os << "  <start>";
    }
    os << " -> " << module.net_name(step.net) << (step.out_rising ? " r " : " f ") << "+"
       << step.incr_ps << " = " << step.arrival_ps << " ps\n";
  }
  os << "  endpoint cost: " << delay_ps << " ps"
     << (endpoint.is_flop_d ? " (incl. setup)" : "") << "\n";
  return os.str();
}

TimingPath extract_path(const Sta& sta, const Endpoint& endpoint) {
  TimingPath path;
  path.endpoint = endpoint;
  path.delay_ps = endpoint.cost_ps();

  netlist::NetId net = endpoint.net;
  bool rising = endpoint.rising;
  std::vector<PathStep> reversed;
  while (true) {
    const NetTiming& t = sta.timing(net);
    const int edge = rising ? 0 : 1;
    PathStep step;
    step.net = net;
    step.out_rising = rising;
    step.arrival_ps = t.arrival_ps[edge];
    step.instance = t.from_instance[edge];
    step.input_pin = t.from_pin[edge];
    step.in_rising = t.from_in_rising[edge];
    if (step.instance < 0) {
      step.incr_ps = step.arrival_ps;  // start point (PI: 0, flop Q: CK->Q delay)
      reversed.push_back(step);
      break;
    }
    const auto& inst = sta.module().instances()[static_cast<std::size_t>(step.instance)];
    const netlist::NetId prev_net = inst.fanin[static_cast<std::size_t>(step.input_pin)];
    const NetTiming& pt = sta.timing(prev_net);
    step.incr_ps = step.arrival_ps - pt.arrival_ps[step.in_rising ? 0 : 1];
    reversed.push_back(step);
    net = prev_net;
    rising = step.in_rising;
  }
  path.steps.assign(reversed.rbegin(), reversed.rend());
  return path;
}

TimingPath worst_path(const Sta& sta) {
  if (sta.endpoints().empty()) throw std::runtime_error("worst_path: no endpoints");
  return extract_path(sta, sta.endpoints().front());
}

std::vector<TimingPath> worst_endpoint_paths(const Sta& sta, std::size_t k) {
  std::vector<TimingPath> out;
  for (const auto& ep : sta.endpoints()) {
    if (out.size() >= k) break;
    out.push_back(extract_path(sta, ep));
  }
  return out;
}

double evaluate_path_ps(const netlist::Module& module, const liberty::Library& library,
                        const TimingPath& path, const StaOptions& options) {
  if (path.steps.empty()) throw std::invalid_argument("evaluate_path_ps: empty path");
  const netlist::Fanout fanout(module);

  double arrival = 0.0;
  double slew = options.input_slew_ps;

  for (const auto& step : path.steps) {
    if (step.instance < 0) {
      // Start point. Flop starts were folded into the first step's driver
      // being -1 with incr = CK->Q; re-derive it against the new library if
      // the start net is a flop output.
      const int drv = module.driver(step.net);
      if (drv >= 0) {
        const auto& inst = module.instances()[static_cast<std::size_t>(drv)];
        const liberty::Cell& cell = library.at(inst.cell);
        if (cell.is_flop) {
          const liberty::TimingArc* arc = cell.arc_from("CK");
          if (arc == nullptr) throw std::runtime_error("evaluate_path_ps: flop without CK arc");
          const double load = net_load_ff(module, library, options, fanout, step.net);
          const ArcEdge e =
              lookup_arc_edge(*arc, step.out_rising, options.input_slew_ps, load);
          arrival = e.delay_ps;
          slew = e.out_slew_ps;
          continue;
        }
      }
      arrival = 0.0;
      slew = options.input_slew_ps;
      continue;
    }
    const auto& inst = module.instances()[static_cast<std::size_t>(step.instance)];
    const liberty::Cell& cell = library.at(inst.cell);
    const auto input_pins = cell.input_pins();
    const liberty::TimingArc* arc =
        cell.arc_from(input_pins[static_cast<std::size_t>(step.input_pin)]->name);
    if (arc == nullptr) throw std::runtime_error("evaluate_path_ps: missing arc");
    const double load = net_load_ff(module, library, options, fanout, step.net);
    const ArcEdge e = lookup_arc_edge(*arc, step.out_rising, slew, load);
    arrival += e.delay_ps;
    slew = e.out_slew_ps;
  }
  // Setup of the capturing flop, re-derived against the evaluation library.
  double setup = 0.0;
  if (path.endpoint.is_flop_d && path.endpoint.flop_instance >= 0) {
    const auto& flop =
        module.instances()[static_cast<std::size_t>(path.endpoint.flop_instance)];
    setup = library.at(flop.cell).setup_ps;
  }
  return arrival + setup;
}

}  // namespace rw::sta
