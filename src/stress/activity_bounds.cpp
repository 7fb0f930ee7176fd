#include "stress/activity_bounds.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <functional>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "stress/network.hpp"
#include "stress/stacks.hpp"

namespace rw::stress {

namespace {

constexpr int kMaxInputs = kMaxGateInputs;
constexpr std::uint64_t kXor2Truth = 0b0110;  // Q toggles iff D ⊕ Q at the edge

/// Gate after cofactoring out probability-constant inputs and dropping
/// inputs the function does not depend on.
struct Reduced {
  std::uint64_t truth = 0;
  int k = 0;
  int map[kMaxInputs] = {};  ///< reduced index → original fanin index
};

/// Remove dimension `input` by taking the x_input = 0 cofactor (callers only
/// use this when the function does not depend on that input).
std::uint64_t drop_input(std::uint64_t truth, int k, int input) {
  std::uint64_t out = 0;
  const std::size_t n = std::size_t{1} << (k - 1);
  const std::uint64_t low_mask = (std::uint64_t{1} << input) - 1;
  for (std::size_t q = 0; q < n; ++q) {
    const std::uint64_t pat = (q & low_mask) | ((q & ~low_mask) << 1);
    out |= ((truth >> pat) & 1u) << q;
  }
  return out;
}

Reduced reduce_gate(std::uint64_t truth, int k, const Interval* prob) {
  Reduced r;
  std::uint64_t const_val = 0;
  for (int i = 0; i < k; ++i) {
    if (prob[i].is_constant()) {
      if (prob[i].lo == 1.0) const_val |= std::uint64_t{1} << i;
    } else {
      r.map[r.k++] = i;
    }
  }
  const std::size_t n = std::size_t{1} << r.k;
  for (std::size_t q = 0; q < n; ++q) {
    std::uint64_t pat = const_val;
    for (int j = 0; j < r.k; ++j) {
      if ((q >> j) & 1u) pat |= std::uint64_t{1} << r.map[j];
    }
    r.truth |= ((truth >> pat) & 1u) << q;
  }
  // Drop inputs the cofactored function no longer depends on (they carry no
  // toggles into the output and no correlation into the transfer).
  for (int j = r.k - 1; j >= 0; --j) {
    if (boolean_difference(r.truth, r.k, j) != 0) continue;
    r.truth = drop_input(r.truth, r.k, j);
    for (int l = j; l + 1 < r.k; ++l) r.map[l] = r.map[l + 1];
    --r.k;
  }
  return r;
}

/// Exact E[toggle(f)] for point (p_i, d_i): per input the stationary pair
/// (x_i at t, x_i at t+1) has distribution θ = (1−p−d/2, d/2, d/2, p−d/2);
/// reduce the 4^k toggle-indicator table one base-4 digit at a time
/// (digit i of an index: bit 0 = x_i(t), bit 1 = x_i(t+1), weight 4^i).
double pair_expectation(std::uint64_t truth, int k, const double* p, const double* d) {
  static constexpr std::size_t kPow4[5] = {1, 4, 16, 64, 256};
  const std::size_t n = kPow4[k];
  double v[256];
  for (std::size_t pp = 0; pp < n; ++pp) {
    std::uint64_t x = 0;
    std::uint64_t y = 0;
    std::size_t t = pp;
    for (int i = 0; i < k; ++i) {
      x |= (t & 1u) << i;
      y |= ((t >> 1) & 1u) << i;
      t >>= 2;
    }
    v[pp] = ((truth >> x) & 1u) != ((truth >> y) & 1u) ? 1.0 : 0.0;
  }
  for (int i = k - 1; i >= 0; --i) {
    const std::size_t s = kPow4[i];
    const double t00 = 1.0 - p[i] - 0.5 * d[i];
    const double t01 = 0.5 * d[i];
    const double t11 = p[i] - 0.5 * d[i];
    for (std::size_t j = 0; j < s; ++j) {
      v[j] = t00 * v[j] + t01 * (v[j + s] + v[j + 2 * s]) + t11 * v[j + 3 * s];
    }
  }
  return v[0];
}

/// What one instance's stage-refined HCI proxy depends on. Equality is
/// bitwise, so instances that share an entry share a bitwise-equal result.
struct StageInputs {
  const CompiledCell* cell = nullptr;
  int k = 0;
  Interval prob[kMaxInputs];
  Interval toggles[kMaxInputs];

  [[nodiscard]] bool operator==(const StageInputs& o) const {
    const auto n = sizeof(Interval) * static_cast<std::size_t>(k);
    return cell == o.cell && k == o.k && std::memcmp(prob, o.prob, n) == 0 &&
           std::memcmp(toggles, o.toggles, n) == 0;
  }
};

struct StageInputsHash {
  std::size_t operator()(const StageInputs& in) const {
    std::uint64_t h = std::hash<const void*>{}(in.cell) ^ static_cast<std::uint64_t>(in.k);
    const auto mix = [&h](double v) {
      h = (h ^ std::bit_cast<std::uint64_t>(v)) * 0x100000001b3ULL;  // FNV-1a step
    };
    for (int j = 0; j < in.k; ++j) {
      mix(in.prob[j].lo);
      mix(in.prob[j].hi);
      mix(in.toggles[j].lo);
      mix(in.toggles[j].hi);
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

std::uint64_t boolean_difference(std::uint64_t truth, int k, int input) {
  std::uint64_t out = 0;
  const std::size_t n = std::size_t{1} << (k - 1);
  const std::uint64_t low_mask = (std::uint64_t{1} << input) - 1;
  for (std::size_t q = 0; q < n; ++q) {
    const std::uint64_t pat0 = (q & low_mask) | ((q & ~low_mask) << 1);
    const std::uint64_t pat1 = pat0 | (std::uint64_t{1} << input);
    out |= (((truth >> pat0) ^ (truth >> pat1)) & 1u) << q;
  }
  return out;
}

double stationary_density_cap(const Interval& prob) {
  double maxmin = 0.5;
  if (prob.hi <= 0.5) {
    maxmin = prob.hi;
  } else if (prob.lo >= 0.5) {
    maxmin = 1.0 - prob.lo;
  }
  return 2.0 * maxmin;
}

Interval density_independent(std::uint64_t truth, int k, const Interval* prob,
                             const Interval* density) {
  const Reduced r = reduce_gate(truth, k, prob);
  if (r.k == 0) return Interval::point(0.0);
  if (r.k == 1) {
    // ±identity after reduction: toggles pass through exactly (sound under
    // any correlation; keeps clock buffers/inverters at the clock density).
    return density[r.map[0]];
  }
  // Najm bound: D(y) ≤ Σ_i P(∂f/∂x_i)·D(x_i), the ∂-probability evaluated
  // over the other inputs' boxes by exact vertex enumeration.
  double najm = 0.0;
  double sum_hi = 0.0;
  bool clockish = false;
  for (int j = 0; j < r.k; ++j) {
    const Interval d = density[r.map[j]];
    sum_hi += d.hi;
    if (d.hi > 1.0) clockish = true;
    const std::uint64_t dt = boolean_difference(r.truth, r.k, j);
    Interval others[kMaxInputs];
    int n_others = 0;
    for (int l = 0; l < r.k; ++l) {
      if (l != j) others[n_others++] = prob[r.map[l]];
    }
    najm += transfer_independent(dt, r.k - 1, others).hi * d.hi;
  }
  // Cycle sampling sees at most one change per boundary on data nets; gates
  // fed by intra-cycle (clock-derived) signals keep the union bound instead.
  const double cap = clockish ? sum_hi : std::min(1.0, sum_hi);
  double hi = std::min(najm, cap);
  double lo = 0.0;
  // Pair-exact refinement: enumerate the (p, d) box vertices when the box is
  // small and informative (full [0,1]² boxes cannot tighten anything).
  if (!clockish && r.k <= 4) {
    double pc[kMaxInputs][2];
    double dc[kMaxInputs][2];
    int np[kMaxInputs];
    int nd[kMaxInputs];
    std::size_t vertices = 1;
    bool informative = false;
    for (int j = 0; j < r.k; ++j) {
      const Interval p = prob[r.map[j]];
      Interval d = density[r.map[j]];
      d.hi = std::min(d.hi, stationary_density_cap(p));
      d.lo = std::min(d.lo, d.hi);
      pc[j][0] = p.lo;
      pc[j][1] = p.hi;
      np[j] = p.is_point() ? 1 : 2;
      dc[j][0] = d.lo;
      dc[j][1] = d.hi;
      nd[j] = d.is_point() ? 1 : 2;
      vertices *= static_cast<std::size_t>(np[j]) * static_cast<std::size_t>(nd[j]);
      if (p.width() < 1.0 || d.width() < 1.0) informative = true;
    }
    if (informative && vertices <= 16) {
      double emin = 1.0;
      double emax = 0.0;
      double pv[kMaxInputs];
      double dv[kMaxInputs];
      for (std::size_t v = 0; v < vertices; ++v) {
        std::size_t t = v;
        for (int j = 0; j < r.k; ++j) {
          pv[j] = pc[j][t % static_cast<std::size_t>(np[j])];
          t /= static_cast<std::size_t>(np[j]);
          dv[j] = dc[j][t % static_cast<std::size_t>(nd[j])];
          t /= static_cast<std::size_t>(nd[j]);
        }
        const double e = pair_expectation(r.truth, r.k, pv, dv);
        emin = std::min(emin, e);
        emax = std::max(emax, e);
      }
      // The box contains the feasible region (d ≤ 2·min(p, 1−p)), so the
      // box extrema bracket the true extrema; clamp away the infeasible
      // vertices' excursions outside [0, cap].
      hi = std::min(hi, std::clamp(emax, 0.0, cap));
      lo = std::clamp(emin, 0.0, hi);
    }
  }
  return Interval{lo, hi};
}

Interval density_correlated(std::uint64_t truth, int k, const Interval* prob,
                            const Interval* density) {
  const Reduced r = reduce_gate(truth, k, prob);
  if (r.k == 0) return Interval::point(0.0);
  if (r.k == 1) return density[r.map[0]];
  double upper = 0.0;
  double sum_hi = 0.0;
  bool clockish = false;
  for (int j = 0; j < r.k; ++j) {
    const Interval d = density[r.map[j]];
    sum_hi += d.hi;
    if (d.hi > 1.0) clockish = true;
    const std::uint64_t dt = boolean_difference(r.truth, r.k, j);
    Interval others[kMaxInputs];
    int n_others = 0;
    for (int l = 0; l < r.k; ++l) {
      if (l != j) others[n_others++] = prob[r.map[l]];
    }
    // Fréchet widening per term: input i contributes at most its own
    // toggles, and at most the correlation-safe P(∂f/∂x_i).
    upper += std::min(d.hi, transfer_correlated(dt, r.k - 1, others).hi);
  }
  const double cap = clockish ? sum_hi : std::min(1.0, sum_hi);
  return Interval{0.0, std::min(upper, cap)};
}

std::size_t ActivityReport::widened_density_count() const {
  return static_cast<std::size_t>(
      std::count(density_widened.begin(), density_widened.end(), char{1}));
}

ActivityReport analyze_network_activity(const NetworkModel& model,
                                        const ActivityOptions& options) {
  return analyze_network_activity(model, options, analyze_network(model, options.probability));
}

ActivityReport analyze_network_activity(const NetworkModel& model,
                                        const ActivityOptions& options,
                                        StressReport probability) {
  const netlist::Module& module = model.module();
  const auto& instances = module.instances();
  const auto& nodes = model.nodes();
  const std::size_t n_inst = instances.size();
  const std::size_t n_net = static_cast<std::size_t>(module.net_count());
  const netlist::NetId clock = module.clock();

  ActivityReport report;
  report.probability = std::move(probability);
  const std::vector<Interval>& prob = report.probability.net;
  report.density.assign(n_net, Interval::full());
  report.density_widened.assign(n_net, 0);
  report.clock_fed.assign(n_net, 0);
  if (clock != netlist::kNoNet) {
    for (std::size_t net = 0; net < n_net; ++net) {
      report.clock_fed[net] =
          model.depends_on_source(static_cast<netlist::NetId>(net), clock) ? 1 : 0;
    }
  }

  // -- Source densities: the clock net is pinned; other undriven nets get
  //    their declared/default interval, intersected with the stationarity
  //    cap implied by their probability interval.
  for (std::size_t net = 0; net < n_net; ++net) {
    const auto id = static_cast<netlist::NetId>(net);
    if (id == clock) {
      report.density[net] = Interval::point(options.clock_transitions);
      continue;
    }
    if (module.driver(id) >= 0) continue;
    const auto it = options.input_densities.find(module.net_name(id));
    Interval d;
    if (it != options.input_densities.end()) {
      d = it->second.clamped();
    } else if (options.default_input_density) {
      d = options.default_input_density->clamped();
    } else {
      d = Interval{0.0, std::min(1.0, stationary_density_cap(prob[net]))};
    }
    d.hi = std::min(d.hi, stationary_density_cap(prob[net]));
    d.lo = std::min(d.lo, d.hi);
    report.density[net] = d;
  }

  // -- Flop outputs: Q toggles at an edge exactly when D ⊕ Q held before
  //    it, so D(Q) = P(D ⊕ Q) over the converged probability fixed point —
  //    correlation-safe, since support(Q) ⊇ support(D).
  for (std::size_t i = 0; i < n_inst; ++i) {
    if (!nodes[i].is_flop || instances[i].out == netlist::kNoNet) continue;
    const std::size_t out = static_cast<std::size_t>(instances[i].out);
    const netlist::NetId dnet =
        nodes[i].data_pin >= 0 ? instances[i].fanin[nodes[i].data_pin] : netlist::kNoNet;
    Interval in2[2];
    in2[0] = dnet == netlist::kNoNet ? Interval::full() : prob[static_cast<std::size_t>(dnet)];
    in2[1] = prob[out];
    Interval d = transfer_correlated(kXor2Truth, 2, in2);
    d.hi = std::min(d.hi, stationary_density_cap(prob[out]));
    d.lo = std::min(d.lo, d.hi);
    report.density[out] = d;
  }

  // -- One levelized density sweep: the probability pass already resolved
  //    the sequential feedback, so combinational densities are a single
  //    forward pass in level order.
  auto eval_density = [&](std::size_t i) {
    const netlist::Instance& inst = instances[i];
    const NetworkNode& node = nodes[i];
    if (inst.out == netlist::kNoNet) return;
    Interval p[kMaxInputs];
    Interval d[kMaxInputs];
    for (int j = 0; j < node.k; ++j) {
      const netlist::NetId f = inst.fanin[static_cast<std::size_t>(j)];
      p[j] = f == netlist::kNoNet ? Interval::full() : prob[static_cast<std::size_t>(f)];
      d[j] = f == netlist::kNoNet ? Interval::full()
                                  : report.density[static_cast<std::size_t>(f)];
    }
    bool overlap = false;
    for (int a = 0; a < node.k && !overlap; ++a) {
      if (p[a].is_constant()) continue;
      const netlist::NetId fa = inst.fanin[static_cast<std::size_t>(a)];
      for (int b = a + 1; b < node.k && !overlap; ++b) {
        if (p[b].is_constant()) continue;
        const netlist::NetId fb = inst.fanin[static_cast<std::size_t>(b)];
        if (fa == fb || fa == netlist::kNoNet || fb == netlist::kNoNet ||
            model.supports_overlap(fa, fb)) {
          overlap = true;
        }
      }
    }
    const std::size_t out = static_cast<std::size_t>(inst.out);
    Interval dv = overlap ? density_correlated(node.truth, node.k, p, d)
                          : density_independent(node.truth, node.k, p, d);
    if (report.clock_fed[out] == 0) {
      dv.hi = std::min(dv.hi, stationary_density_cap(prob[out]));
      dv.lo = std::min(dv.lo, dv.hi);
    }
    report.density[out] = dv;
    report.density_widened[out] = overlap ? 1 : 0;
  };
  const netlist::Graph& graph = model.graph();
  for (std::size_t l = 0; l < graph.level_count(); ++l) {
    for (const std::int32_t i : graph.level(l)) eval_density(static_cast<std::size_t>(i));
  }

  // -- Per-instance summaries: pin toggles and the load-weighted switching
  //    bound; the HCI proxy follows below. Net loads are accumulated in one serial pass (Module::sinks() is a
  //    full-instance scan — per-instance lookups would be quadratic).
  std::vector<double> net_load_ff(n_net, 0.0);
  for (std::size_t i = 0; i < n_inst; ++i) {
    const auto& fanin = instances[i].fanin;
    const liberty::Cell& cell = *nodes[i].cell;
    for (std::size_t j = 0; j < fanin.size(); ++j) {
      if (fanin[j] == netlist::kNoNet) continue;
      net_load_ff[static_cast<std::size_t>(fanin[j])] +=
          cell.input_cap_ff(cell.input_pin(j).name);
    }
  }
  report.instances.assign(n_inst, InstanceActivity{});
  for (std::size_t i = 0; i < n_inst; ++i) {
    const netlist::Instance& inst = instances[i];
    const NetworkNode& node = nodes[i];
    InstanceActivity& ia = report.instances[i];
    ia.pin_toggles.resize(static_cast<std::size_t>(node.k));
    for (int j = 0; j < node.k; ++j) {
      if ((node.clock_pin_mask >> j) & 1u) {
        ia.pin_toggles[static_cast<std::size_t>(j)] = Interval::point(options.clock_transitions);
        continue;
      }
      const netlist::NetId f = inst.fanin[static_cast<std::size_t>(j)];
      ia.pin_toggles[static_cast<std::size_t>(j)] =
          f == netlist::kNoNet ? Interval::full()
                               : report.density[static_cast<std::size_t>(f)];
    }
    if (inst.out != netlist::kNoNet) {
      const std::size_t out = static_cast<std::size_t>(inst.out);
      ia.output_toggles = report.density[out];
      ia.widened = report.density_widened[out] != 0;
      ia.load_ff = net_load_ff[out];
      ia.switch_cap_ff =
          RealInterval{ia.load_ff * ia.output_toggles.lo, ia.load_ff * ia.output_toggles.hi};
    }
  }

  // -- HCI proxies, refined through the cell's compiled stage network when
  //    it has one. The refinement is a pure function of (cell, pin
  //    probabilities, pin toggles), and a design repeats few of those —
  //    RISC-5P's 1,730 staged instances hold 28 under the default model —
  //    so each distinct input, compared bitwise, is evaluated once.
  std::vector<std::int32_t> stage_input(n_inst, -1);
  std::vector<StageInputs> distinct;
  {
    std::unordered_map<StageInputs, std::int32_t, StageInputsHash> index;
    for (std::size_t i = 0; i < n_inst; ++i) {
      const NetworkNode& node = nodes[i];
      if (node.is_flop || node.k == 0 || node.stages == nullptr || node.stages->n_pins != node.k) {
        continue;
      }
      StageInputs in;
      in.cell = node.stages;
      in.k = node.k;
      for (int j = 0; j < node.k; ++j) {
        const netlist::NetId f = instances[i].fanin[static_cast<std::size_t>(j)];
        in.prob[j] = f == netlist::kNoNet ? Interval::full() : prob[static_cast<std::size_t>(f)];
        in.toggles[j] = report.instances[i].pin_toggles[static_cast<std::size_t>(j)];
      }
      const auto [it, inserted] = index.try_emplace(in, static_cast<std::int32_t>(distinct.size()));
      if (inserted) distinct.push_back(in);
      stage_input[i] = it->second;
    }
  }
  std::vector<std::optional<RealInterval>> stage_hci(distinct.size());
  for (std::size_t d = 0; d < distinct.size(); ++d) {
    stage_hci[d] = worst_transistor_toggles(*distinct[d].cell, distinct[d].prob, distinct[d].toggles);
  }
  for (std::size_t i = 0; i < n_inst; ++i) {
    InstanceActivity& ia = report.instances[i];
    if (stage_input[i] >= 0 && stage_hci[static_cast<std::size_t>(stage_input[i])]) {
      ia.hci = *stage_hci[static_cast<std::size_t>(stage_input[i])];
      ia.hci_from_stacks = true;
      continue;
    }
    // Pin-level fallback: every pin drives at least one gate node, and any
    // internal node's toggle needs at least one pin toggle per boundary.
    double lo = 0.0;
    double hi = 0.0;
    bool clockish = false;
    for (const Interval& pin : ia.pin_toggles) {
      lo = std::max(lo, pin.lo);
      hi += pin.hi;
      if (pin.hi > 1.0) clockish = true;
    }
    if (!clockish) hi = std::min(hi, 1.0);
    ia.hci = RealInterval{lo, std::max(hi, lo)};
  }

  for (std::size_t net = 0; net < n_net; ++net) {
    if (module.driver(static_cast<netlist::NetId>(net)) >= 0 &&
        report.density[net].hi <= 1e-9) {
      ++report.quiet_driven_nets;
    }
  }
  return report;
}

ActivityReport analyze_activity(const netlist::Module& module, const liberty::Library& library,
                                const ActivityOptions& options) {
  return analyze_network_activity(NetworkModel::build(module, library), options);
}

}  // namespace rw::stress
