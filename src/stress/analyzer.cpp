#include "stress/analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "stress/network.hpp"

namespace rw::stress {

namespace {

constexpr int kMaxInputs = kMaxGateInputs;

/// Multilinear evaluation of the truth table at one probability vector:
/// Shannon reduction over the highest variable first, O(2^k).
double eval_multilinear(std::uint64_t truth, int k, const double* p) {
  double v[1u << kMaxInputs];
  const std::size_t n = std::size_t{1} << k;
  for (std::size_t pat = 0; pat < n; ++pat) v[pat] = (truth >> pat) & 1u ? 1.0 : 0.0;
  for (int i = k - 1; i >= 0; --i) {
    const std::size_t half = std::size_t{1} << i;
    for (std::size_t j = 0; j < half; ++j) v[j] = (1.0 - p[i]) * v[j] + p[i] * v[j + half];
  }
  return v[0];
}

/// Fréchet lower bound: max over implicant cubes of max(0, Σ ℓ_j − (m−1)),
/// where a positive literal contributes lo_i and a negative one 1 − hi_i.
double frechet_lower(std::uint64_t truth, int k, const Interval* in) {
  const std::size_t n = std::size_t{1} << k;
  const std::uint64_t all = n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
  if ((truth & all) == all) return 1.0;  // constant 1
  double best = 0.0;
  int digit[kMaxInputs] = {0};  // 0 = free, 1 = positive literal, 2 = negative
  std::size_t cubes = 1;
  for (int i = 0; i < k; ++i) cubes *= 3;
  for (std::size_t c = 0; c < cubes; ++c) {
    // Bound first — skip the implicant check when it cannot improve.
    double sum = 0.0;
    int m = 0;
    std::uint64_t fixed_mask = 0;
    std::uint64_t fixed_val = 0;
    for (int i = 0; i < k; ++i) {
      if (digit[i] == 1) {
        sum += in[i].lo;
        ++m;
        fixed_mask |= std::uint64_t{1} << i;
        fixed_val |= std::uint64_t{1} << i;
      } else if (digit[i] == 2) {
        sum += 1.0 - in[i].hi;
        ++m;
        fixed_mask |= std::uint64_t{1} << i;
      }
    }
    const double bound = m == 0 ? 1.0 : sum - static_cast<double>(m - 1);
    if (bound > best) {
      bool implicant = true;
      for (std::size_t pat = 0; pat < n; ++pat) {
        if ((pat & fixed_mask) != fixed_val) continue;
        if (((truth >> pat) & 1u) == 0) {
          implicant = false;
          break;
        }
      }
      if (implicant) best = bound;
    }
    // Next cube (ternary counter).
    for (int i = 0; i < k; ++i) {
      if (++digit[i] < 3) break;
      digit[i] = 0;
    }
  }
  return std::clamp(best, 0.0, 1.0);
}

}  // namespace

Interval transfer_independent(std::uint64_t truth, int k, const Interval* in) {
  double p[kMaxInputs];
  double lo = 1.0;
  double hi = 0.0;
  const std::size_t vertices = std::size_t{1} << k;
  for (std::size_t v = 0; v < vertices; ++v) {
    for (int i = 0; i < k; ++i) p[i] = (v >> i) & 1u ? in[i].hi : in[i].lo;
    const double val = eval_multilinear(truth, k, p);
    lo = std::min(lo, val);
    hi = std::max(hi, val);
  }
  return Interval{lo, hi}.clamped();
}

Interval transfer_correlated(std::uint64_t truth, int k, const Interval* in) {
  const std::size_t n = std::size_t{1} << k;
  const std::uint64_t all = n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
  const double lo = frechet_lower(truth & all, k, in);
  const double hi = 1.0 - frechet_lower(~truth & all, k, in);
  return Interval{lo, hi}.clamped();
}

std::size_t StressReport::widened_net_count() const {
  return static_cast<std::size_t>(std::count(net_widened.begin(), net_widened.end(), char{1}));
}

std::size_t StressReport::constant_net_count() const {
  std::size_t n = 0;
  for (const Interval& v : net) n += v.is_constant() ? 1 : 0;
  return n;
}

StressReport analyze_network(const NetworkModel& model, const AnalyzeOptions& options) {
  const netlist::Module& module = model.module();
  const auto& instances = module.instances();
  const auto& nodes = model.nodes();
  const std::size_t n_inst = instances.size();
  const std::size_t n_net = static_cast<std::size_t>(module.net_count());

  // -- Initial intervals: declared PI intervals; ⊤ for the clock net,
  //    undriven nets, and every flop output.
  StressReport report;
  report.net.assign(n_net, Interval::full());
  report.net_widened.assign(n_net, 0);
  for (netlist::NetId id : module.inputs()) {
    if (id == module.clock()) continue;
    const auto it = options.input_intervals.find(module.net_name(id));
    const Interval v = it != options.input_intervals.end() ? it->second : options.default_input;
    report.net[static_cast<std::size_t>(id)] = v.clamped();
  }

  // -- Evaluate one combinational instance: pick the transfer by support
  //    overlap among the non-constant inputs (proven constants carry no
  //    correlation, so they never force widening).
  auto eval_instance = [&](std::size_t i) {
    const netlist::Instance& inst = instances[i];
    const NetworkNode& node = nodes[i];
    if (inst.out == netlist::kNoNet) return;
    Interval in[kMaxInputs];
    for (int j = 0; j < node.k; ++j) {
      const netlist::NetId f = inst.fanin[static_cast<std::size_t>(j)];
      in[j] = f == netlist::kNoNet ? Interval::full() : report.net[static_cast<std::size_t>(f)];
    }
    bool overlap = false;
    for (int a = 0; a < node.k && !overlap; ++a) {
      if (in[a].is_constant()) continue;
      const netlist::NetId fa = inst.fanin[static_cast<std::size_t>(a)];
      for (int b = a + 1; b < node.k && !overlap; ++b) {
        if (in[b].is_constant()) continue;
        const netlist::NetId fb = inst.fanin[static_cast<std::size_t>(b)];
        if (fa == fb || fa == netlist::kNoNet || fb == netlist::kNoNet ||
            model.supports_overlap(fa, fb)) {
          overlap = true;
        }
      }
    }
    const std::size_t out = static_cast<std::size_t>(inst.out);
    report.net[out] = overlap ? transfer_correlated(node.truth, node.k, in)
                              : transfer_independent(node.truth, node.k, in);
    report.net_widened[out] = overlap ? 1 : 0;
  };

  // -- Kleene iteration from ⊤: comb sweep in level order, then the flop
  //    cut-point update Q ← I(D), intersected with the previous value to
  //    keep the sequence monotone under floating-point noise.
  const netlist::Graph& graph = model.graph();
  report.converged = false;
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    report.iterations = iter;
    for (std::size_t l = 0; l < graph.level_count(); ++l) {
      for (const std::int32_t i : graph.level(l)) eval_instance(static_cast<std::size_t>(i));
    }
    double max_change = 0.0;
    for (std::size_t i = 0; i < n_inst; ++i) {
      if (!nodes[i].is_flop || instances[i].out == netlist::kNoNet) continue;
      const std::size_t out = static_cast<std::size_t>(instances[i].out);
      const netlist::NetId d = nodes[i].data_pin >= 0 ? instances[i].fanin[nodes[i].data_pin]
                                                      : netlist::kNoNet;
      const Interval dv =
          d == netlist::kNoNet ? Interval::full() : report.net[static_cast<std::size_t>(d)];
      const Interval old = report.net[out];
      const Interval next =
          Interval{std::max(old.lo, dv.lo), std::min(old.hi, dv.hi)}.clamped();
      max_change = std::max(max_change, std::abs(next.lo - old.lo));
      max_change = std::max(max_change, std::abs(next.hi - old.hi));
      report.net[out] = next;
    }
    if (max_change <= options.tolerance) {
      report.converged = true;
      break;
    }
  }

  // -- Footnote-2 aggregation: λn = mean over input pins of P(pin high),
  //    clock pins pinned to the simulator's convention.
  report.instances.resize(n_inst);
  for (std::size_t i = 0; i < n_inst; ++i) {
    const netlist::Instance& inst = instances[i];
    const NetworkNode& node = nodes[i];
    const Interval ln = average(static_cast<std::size_t>(node.k), [&](std::size_t j) {
      if ((node.clock_pin_mask >> j) & 1u) return Interval::point(options.clock_probability);
      const netlist::NetId f = inst.fanin[j];
      return f == netlist::kNoNet ? Interval::full() : report.net[static_cast<std::size_t>(f)];
    });
    report.instances[i].lambda_n = ln;
    report.instances[i].lambda_p = ln.complement();
    report.instances[i].widened =
        inst.out != netlist::kNoNet && !node.is_flop &&
        report.net_widened[static_cast<std::size_t>(inst.out)] != 0;
  }
  return report;
}

StressReport analyze(const netlist::Module& module, const liberty::Library& library,
                     const AnalyzeOptions& options) {
  return analyze_network(NetworkModel::build(module, library), options);
}

}  // namespace rw::stress
