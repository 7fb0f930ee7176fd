#include "charlib/characterizer.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "cells/function.hpp"
#include "flow/cancel.hpp"
#include "spice/fault.hpp"
#include "spice/measure.hpp"
#include "spice/solver.hpp"
#include "spice/stats.hpp"
#include "util/interp.hpp"
#include "util/thread_pool.hpp"

namespace rw::charlib {

CharError::CharError(std::string cell, std::string context, std::string detail)
    : std::runtime_error("characterize " + cell + " [" + context + "]: " + detail),
      cell_(std::move(cell)),
      context_(std::move(context)),
      detail_(std::move(detail)) {}

namespace {

using cells::CellSpec;
using spice::Circuit;
using spice::NodeId;
using spice::Pwl;

/// One arc sensitization: side-input values plus the switching pin's edge.
struct ArcRun {
  std::string pin;
  std::vector<bool> side;  ///< values per spec.inputs (entry for `pin` = pre-edge value)
  bool in_rising = true;
  bool out_rising = true;
};

/// Finds a side-input assignment under which toggling `pin` produces the
/// requested output transition. Prefers an input rise; falls back to an
/// input fall (needed for positive-unate cells' falling output, etc.).
std::optional<ArcRun> find_sensitization(const CellSpec& spec, const std::string& pin,
                                         bool out_rising) {
  const auto n = spec.inputs.size();
  std::size_t pin_idx = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (spec.inputs[i] == pin) pin_idx = i;
  }
  if (pin_idx == n) throw std::invalid_argument("find_sensitization: unknown pin " + pin);

  for (const bool in_rising : {true, false}) {
    for (std::uint64_t pattern = 0; pattern < (1ULL << n); ++pattern) {
      std::vector<bool> lo(n);
      std::vector<bool> hi(n);
      for (std::size_t i = 0; i < n; ++i) {
        const bool v = ((pattern >> i) & 1ULL) != 0;
        lo[i] = (i == pin_idx) ? false : v;
        hi[i] = (i == pin_idx) ? true : v;
      }
      const bool out_lo = cells::eval_cell(spec, lo);
      const bool out_hi = cells::eval_cell(spec, hi);
      if (out_lo == out_hi) continue;
      const bool before = in_rising ? out_lo : out_hi;
      const bool after = in_rising ? out_hi : out_lo;
      if (!before && after && out_rising) {
        return ArcRun{pin, in_rising ? lo : hi, in_rising, true};
      }
      if (before && !after && !out_rising) {
        return ArcRun{pin, in_rising ? lo : hi, in_rising, false};
      }
    }
  }
  return std::nullopt;
}

struct Measurement {
  double delay_ps;
  double slew_ps;
};

/// Runs one transient on a pre-built circuit and measures the output edge,
/// growing the settle window (t_stop only — the circuit itself is
/// window-independent, so it is never rebuilt) on failure.
Measurement run_and_measure(const Circuit& circuit, NodeId out_node, double input_t50_ps,
                            bool out_rising, double vdd, double base_window_ps,
                            const std::string& what, const spice::TransientOptions& topt_base) {
  double window = base_window_ps;
  for (int attempt = 0; attempt < 3; ++attempt) {
    spice::TransientOptions topt = topt_base;
    topt.t_stop_ps = window;
    const auto result = spice::simulate_transient(circuit, topt, {out_node});
    const auto timing =
        spice::measure_edge(result.waveform(out_node), input_t50_ps, out_rising, vdd);
    if (timing) return Measurement{timing->delay_ps, timing->slew_ps};
    window *= 2.0;
  }
  throw std::runtime_error("characterize: output failed to settle for " + what);
}

device::Degradation degradation_for(device::MosType type, const aging::AgingScenario& scenario,
                                    const CharacterizeOptions& options) {
  if (scenario.is_fresh()) return {};
  const aging::BtiModel model(options.bti);
  const double lambda =
      type == device::MosType::kPmos ? scenario.lambda_p : scenario.lambda_n;
  return model.degrade(type, lambda, scenario.years, scenario.include_mobility);
}

}  // namespace

NodeId append_cell_instance(
    Circuit& circuit, const CellSpec& spec, const aging::AgingScenario& scenario,
    const CharacterizeOptions& options, const std::string& prefix, NodeId vdd_node,
    const std::vector<std::pair<std::string, NodeId>>& pin_bindings) {
  const auto deg_p = degradation_for(device::MosType::kPmos, scenario, options);
  const auto deg_n = degradation_for(device::MosType::kNmos, scenario, options);

  std::map<std::string, NodeId> local;
  local["VDD"] = vdd_node;
  local["GND"] = spice::kGround;
  for (const auto& [name, node] : pin_bindings) local[name] = node;

  const auto resolve = [&](const std::string& name) -> NodeId {
    const auto it = local.find(name);
    if (it != local.end()) return it->second;
    const NodeId id = circuit.add_node(prefix + name);
    local.emplace(name, id);
    return id;
  };

  std::map<NodeId, double> node_cap;
  std::map<NodeId, bool> is_internal;
  NodeId out_node = -1;
  for (const auto& t : cells::materialize(spec, options.tech)) {
    const NodeId g = resolve(t.gate);
    const NodeId d = resolve(t.drain);
    const NodeId s = resolve(t.source);
    const auto& params =
        t.type == device::MosType::kNmos ? options.tech.nmos : options.tech.pmos;
    const auto& deg = t.type == device::MosType::kNmos ? deg_n : deg_p;
    device::Mosfet fet(params, t.width_um, deg);
    node_cap[g] += fet.gate_cap_ff();
    node_cap[d] += fet.junction_cap_ff();
    node_cap[s] += fet.junction_cap_ff();
    circuit.add_mosfet(std::move(fet), g, d, s);
    if (t.drain == spec.output || t.source == spec.output) out_node = resolve(spec.output);
    // Nodes not bound from outside and not rails are cell-internal.
    for (const auto& name : {t.gate, t.drain, t.source}) {
      if (name != "VDD" && name != "GND") {
        const bool bound = std::any_of(pin_bindings.begin(), pin_bindings.end(),
                                       [&](const auto& b) { return b.first == name; });
        if (!bound) is_internal[local.at(name)] = true;
      }
    }
  }
  if (out_node < 0) {
    throw std::runtime_error("append_cell_instance: output never connected in " + spec.name);
  }
  // Layout wire parasitic per internal node.
  for (const auto& [node, internal] : is_internal) {
    if (internal) node_cap[node] += options.wire_cap_per_node_ff;
  }
  for (const auto& [node, cap] : node_cap) {
    if (node != spice::kGround && node != vdd_node && cap > 0.0) {
      circuit.add_capacitor(node, spice::kGround, cap);
    }
  }
  return out_node;
}

namespace {

/// Builds the single-cell test bench for one combinational arc point.
Circuit build_comb_bench(const CellSpec& spec, const aging::AgingScenario& scenario,
                         const CharacterizeOptions& options, const ArcRun& run, double slew_ps,
                         double load_ff, double t_start_ps, NodeId& out_node) {
  const double vdd = options.tech.vdd_v;
  Circuit c;
  const NodeId vdd_node = c.add_node("VDD");
  c.add_source(vdd_node, Pwl::dc(vdd));

  std::vector<std::pair<std::string, NodeId>> bindings;
  for (std::size_t i = 0; i < spec.inputs.size(); ++i) {
    const NodeId n = c.add_node(spec.inputs[i]);
    bindings.emplace_back(spec.inputs[i], n);
    if (spec.inputs[i] == run.pin) {
      const double v0 = run.in_rising ? 0.0 : vdd;
      const double v1 = run.in_rising ? vdd : 0.0;
      c.add_source(n, Pwl::ramp(t_start_ps, slew_ps, v0, v1));
    } else {
      c.add_source(n, Pwl::dc(run.side[i] ? vdd : 0.0));
    }
  }
  out_node = append_cell_instance(c, spec, scenario, options, "u:", vdd_node, bindings);
  if (load_ff > 0.0) c.add_capacitor(out_node, spice::kGround, load_ff);
  return c;
}

/// Flop bench: two clock pulses; the second (measured) rising edge captures a
/// D value opposite to the initial state so Q transitions.
Circuit build_flop_bench(const CellSpec& spec, const aging::AgingScenario& scenario,
                         const CharacterizeOptions& options, bool q_rising, double ck_slew_ps,
                         double load_ff, double d_edge_ps, double ck_edge_ps, NodeId& out_node) {
  const double vdd = options.tech.vdd_v;
  const double v_target = q_rising ? vdd : 0.0;
  const double v_init = q_rising ? 0.0 : vdd;
  Circuit c;
  const NodeId vdd_node = c.add_node("VDD");
  c.add_source(vdd_node, Pwl::dc(vdd));
  const NodeId d_node = c.add_node("D");
  const NodeId ck_node = c.add_node("CK");

  // D: holds the initial value through the first clock pulse, then flips.
  c.add_source(d_node, Pwl{{{0.0, v_init}, {d_edge_ps, v_init}, {d_edge_ps + 25.0, v_target}}});
  // CK: first fast pulse loads Q=init; measured slewed rise at ck_edge_ps.
  const double full = ck_slew_ps / 0.8;
  c.add_source(ck_node, Pwl{{{0.0, 0.0},
                             {50.0, 0.0},
                             {75.0, vdd},
                             {350.0, vdd},
                             {375.0, 0.0},
                             {ck_edge_ps, 0.0},
                             {ck_edge_ps + full, vdd}}});

  out_node = append_cell_instance(c, spec, scenario, options, "u:", vdd_node,
                                  {{"D", d_node}, {"CK", ck_node}});
  if (load_ff > 0.0) c.add_capacitor(out_node, spice::kGround, load_ff);
  return c;
}

liberty::TimingTable make_table(const OpcGrid& grid, const std::vector<double>& delays,
                                const std::vector<double>& slews) {
  liberty::TimingTable t;
  t.delay_ps = util::Table2D(util::Axis(grid.slews_ps), util::Axis(grid.loads_ff), delays);
  t.out_slew_ps = util::Table2D(util::Axis(grid.slews_ps), util::Axis(grid.loads_ff), slews);
  return t;
}

/// Per-point outcome of one arc's grid sweep (slot-indexed, thread-safe by
/// pre-sizing: each grid point writes only its own entries).
struct GridSweep {
  std::vector<double> delays;
  std::vector<double> slews;
  std::vector<char> failed;          ///< 1 = SolverError after the full ladder
  std::vector<std::string> errors;   ///< failure message per failed slot

  explicit GridSweep(std::size_t n) : delays(n), slews(n), failed(n, 0), errors(n) {}
};

/// Fills every failed grid point from converged neighbors, deterministically:
/// prefer a bracketing pair on the load axis (linear in load), then on the
/// slew axis, then the nearest converged point in the same row, column, and
/// finally grid-wide (lowest index breaks ties). Only originally-converged
/// points are ever used as sources, so the result does not depend on the
/// order failed points are visited.
/// \throws CharError when the arc has no converged point at all.
void interpolate_failed_points(const OpcGrid& grid, GridSweep& sweep, const std::string& cell_name,
                               const std::string& pin, bool rising,
                               const std::string& scenario_id,
                               std::vector<liberty::FallbackPoint>& fallbacks) {
  const std::size_t n_loads = grid.loads_ff.size();
  const std::size_t n_slews = grid.slews_ps.size();
  const auto at = [&](std::size_t s, std::size_t l) { return s * n_loads + l; };
  const auto converged = [&](std::size_t s, std::size_t l) { return sweep.failed[at(s, l)] == 0; };

  std::size_t n_failed = 0;
  std::size_t first_failed = 0;
  for (std::size_t i = 0; i < sweep.failed.size(); ++i) {
    if (sweep.failed[i] != 0 && n_failed++ == 0) first_failed = i;
  }
  if (n_failed == 0) return;

  const std::string context =
      "arc=" + pin + " dir=" + (rising ? "rise" : "fall") + " scenario=" + scenario_id;
  if (n_failed == sweep.failed.size()) {
    throw CharError(cell_name, context,
                    "all " + std::to_string(n_failed) +
                        " OPC points failed to converge; first: " + sweep.errors[first_failed]);
  }

  // Interpolated values are staged and applied after the scan so sources are
  // always originally-converged measurements, never earlier fallbacks.
  std::vector<std::pair<std::size_t, Measurement>> staged;
  for (std::size_t s = 0; s < n_slews; ++s) {
    for (std::size_t l = 0; l < n_loads; ++l) {
      if (converged(s, l)) continue;

      // 1) bracket on the load axis (same slew row).
      std::size_t lo = n_loads;
      std::size_t hi = n_loads;
      for (std::size_t k = l; k-- > 0;) {
        if (converged(s, k)) {
          lo = k;
          break;
        }
      }
      for (std::size_t k = l + 1; k < n_loads; ++k) {
        if (converged(s, k)) {
          hi = k;
          break;
        }
      }
      Measurement m{};
      bool found = false;
      if (lo < n_loads && hi < n_loads) {
        const double w =
            (grid.loads_ff[l] - grid.loads_ff[lo]) / (grid.loads_ff[hi] - grid.loads_ff[lo]);
        m.delay_ps =
            sweep.delays[at(s, lo)] + w * (sweep.delays[at(s, hi)] - sweep.delays[at(s, lo)]);
        m.slew_ps = sweep.slews[at(s, lo)] + w * (sweep.slews[at(s, hi)] - sweep.slews[at(s, lo)]);
        found = true;
      }
      // 2) bracket on the slew axis (same load column).
      if (!found) {
        std::size_t slo = n_slews;
        std::size_t shi = n_slews;
        for (std::size_t k = s; k-- > 0;) {
          if (converged(k, l)) {
            slo = k;
            break;
          }
        }
        for (std::size_t k = s + 1; k < n_slews; ++k) {
          if (converged(k, l)) {
            shi = k;
            break;
          }
        }
        if (slo < n_slews && shi < n_slews) {
          const double w = (grid.slews_ps[s] - grid.slews_ps[slo]) /
                           (grid.slews_ps[shi] - grid.slews_ps[slo]);
          m.delay_ps = sweep.delays[at(slo, l)] +
                       w * (sweep.delays[at(shi, l)] - sweep.delays[at(slo, l)]);
          m.slew_ps =
              sweep.slews[at(slo, l)] + w * (sweep.slews[at(shi, l)] - sweep.slews[at(slo, l)]);
          found = true;
        }
      }
      // 3) nearest converged: same row, then same column, then grid-wide
      //    (|Δs| + |Δl| distance, lowest index wins ties).
      if (!found) {
        std::size_t best = sweep.failed.size();
        std::size_t best_dist = static_cast<std::size_t>(-1);
        const auto consider = [&](std::size_t cs, std::size_t cl) {
          if (!converged(cs, cl)) return;
          const std::size_t dist = (cs > s ? cs - s : s - cs) + (cl > l ? cl - l : l - cl);
          if (dist < best_dist) {
            best_dist = dist;
            best = at(cs, cl);
          }
        };
        for (std::size_t k = 0; k < n_loads; ++k) consider(s, k);
        if (best == sweep.failed.size()) {
          for (std::size_t k = 0; k < n_slews; ++k) consider(k, l);
        }
        if (best == sweep.failed.size()) {
          for (std::size_t cs = 0; cs < n_slews; ++cs) {
            for (std::size_t cl = 0; cl < n_loads; ++cl) consider(cs, cl);
          }
        }
        m.delay_ps = sweep.delays[best];
        m.slew_ps = sweep.slews[best];
      }

      staged.emplace_back(at(s, l), m);
      fallbacks.push_back(liberty::FallbackPoint{pin, rising, static_cast<int>(s),
                                                 static_cast<int>(l)});
    }
  }
  for (const auto& [idx, m] : staged) {
    sweep.delays[idx] = m.delay_ps;
    sweep.slews[idx] = m.slew_ps;
  }
}

/// One characterized arc direction: its grid sweep plus the shared t=0
/// operating point every grid task warm-starts from. The DC solution is
/// slew- and load-independent (sources hold their t=0 value and capacitors
/// are open at DC), so one cold solve per arc seeds all grid points; because
/// its value does not depend on which task computes it, results stay bitwise
/// identical across thread counts and task orders.
struct ArcGroup {
  std::string related_pin;     ///< fallback/table attribution ("CK" for flops)
  bool rising = true;          ///< output transition direction
  std::optional<ArcRun> run;   ///< combinational sensitization (nullopt = flop arc)
  std::size_t pin_index = 0;   ///< index into spec.inputs (combinational only)
  GridSweep sweep;
  std::once_flag dc_once;
  std::vector<double> dc_seed;  ///< full node voltages at t=0; empty = cold

  ArcGroup(std::string pin, bool out_rising, std::optional<ArcRun> arc_run, std::size_t pin_idx,
           std::size_t grid_size)
      : related_pin(std::move(pin)),
        rising(out_rising),
        run(std::move(arc_run)),
        pin_index(pin_idx),
        sweep(grid_size) {}
};

/// Setup time by bisection: the smallest D-before-CK interval that still
/// captures the new value. Warm-started from the shared rise-arc DC seed
/// (the flop bench's t=0 state is d_edge-independent).
double characterize_setup(const CellSpec& spec, const aging::AgingScenario& scenario,
                          const CharacterizeOptions& options, const std::vector<double>* seed) {
  const double vdd = options.tech.vdd_v;
  const double ck_edge = 900.0;
  const spice::FaultInjector::ScopedContext fault_ctx("cell=" + spec.name + " setup-search" +
                                                      " scenario=" + scenario.id());
  const auto captured = [&](double offset_ps) {
    flow::throw_if_cancelled();
    NodeId out_node = -1;
    const Circuit c = build_flop_bench(spec, scenario, options, /*q_rising=*/true,
                                       options.flop_char_slew_ps, options.flop_char_load_ff,
                                       ck_edge - offset_ps, ck_edge, out_node);
    spice::TransientOptions topt;
    topt.t_stop_ps = ck_edge + 700.0;
    topt.retry = options.retry;
    topt.initial_state = (seed != nullptr && !seed->empty()) ? seed : nullptr;
    const auto result = spice::simulate_transient(c, topt, {out_node});
    return result.waveform(out_node).back_value() > 0.5 * vdd;
  };

  double lo = 0.0;
  double hi = 400.0;
  if (!captured(hi)) return hi;  // pathological; report the bound
  if (captured(lo)) return 5.0;  // effectively zero; keep a small margin
  for (int i = 0; i < 8; ++i) {
    const double mid = 0.5 * (lo + hi);
    (captured(mid) ? hi : lo) = mid;
  }
  return hi + 5.0;  // small safety margin
}

}  // namespace

struct CellCharJob::Impl {
  CellSpec spec;
  aging::AgingScenario scenario;
  CharacterizeOptions options;
  std::string scenario_id;
  std::size_t n_loads = 0;
  std::size_t grid_size = 0;
  /// deque: ArcGroup holds a once_flag and must never relocate.
  std::deque<ArcGroup> groups;

  Impl(const CellSpec& s, const aging::AgingScenario& sc, const CharacterizeOptions& opt)
      : spec(s), scenario(sc), options(opt), scenario_id(sc.id()) {
    n_loads = options.grid.loads_ff.size();
    grid_size = options.grid.size();
    if (spec.is_flop) {
      groups.emplace_back("CK", true, std::nullopt, 0, grid_size);
      groups.emplace_back("CK", false, std::nullopt, 0, grid_size);
      return;
    }
    // Group order mirrors assembly order (per pin: rise then fall), keeping
    // Cell::fallbacks ordering identical to the sequential characterizer.
    for (std::size_t p = 0; p < spec.inputs.size(); ++p) {
      for (const bool out_rising : {true, false}) {
        if (auto run = find_sensitization(spec, spec.inputs[p], out_rising)) {
          groups.emplace_back(spec.inputs[p], out_rising, std::move(run), p, grid_size);
        }
      }
    }
  }

  /// Shared per-arc DC operating point; `circuit` is any grid point's bench
  /// for this arc (their t=0 states are identical). Failures leave the seed
  /// empty — every task then falls back to the cold in-transient DC chain.
  const std::vector<double>* arc_dc_seed(ArcGroup& grp, const Circuit& circuit) {
    if (!options.warm_start_dc) return nullptr;
    std::call_once(grp.dc_once, [&] {
      try {
        spice::TransientOptions topt;
        topt.retry = options.retry;
        grp.dc_seed = spice::dc_operating_point(circuit, 0.0, topt);
      } catch (...) {
        grp.dc_seed.clear();
      }
    });
    return grp.dc_seed.empty() ? nullptr : &grp.dc_seed;
  }

  void run_grid_point(ArcGroup& grp, std::size_t i) {
    const double slew = options.grid.slews_ps[i / n_loads];
    const double load = options.grid.loads_ff[i % n_loads];
    const spice::FaultInjector::ScopedContext fault_ctx(
        "cell=" + spec.name + " arc=" + grp.related_pin +
        " dir=" + (grp.rising ? "rise" : "fall") + " opc=" + std::to_string(i) +
        " scenario=" + scenario_id);

    NodeId out_node = -1;
    Circuit circuit;
    double t50_in = 0.0;
    double window = 0.0;
    std::string what;
    if (grp.run.has_value()) {
      const double t_start = 20.0;
      circuit = build_comb_bench(spec, scenario, options, *grp.run, slew, load, t_start,
                                 out_node);
      const double ramp_full = slew / 0.8;
      window = t_start + ramp_full + 600.0 + 25.0 * load;
      t50_in = t_start + 0.5 * ramp_full;
      what = spec.name + "/" + grp.related_pin + (grp.rising ? " rise" : " fall");
    } else {
      const double d_edge = 500.0;
      const double ck_edge = 900.0;
      circuit = build_flop_bench(spec, scenario, options, grp.rising, slew, load, d_edge,
                                 ck_edge, out_node);
      const double full = slew / 0.8;
      t50_in = ck_edge + 0.5 * full;
      window = ck_edge + full + 600.0 + 25.0 * load;
      what = spec.name + std::string("/CK->Q ") + (grp.rising ? "rise" : "fall");
    }

    spice::TransientOptions topt;
    topt.retry = options.retry;
    topt.initial_state = arc_dc_seed(grp, circuit);
    try {
      const auto m = run_and_measure(circuit, out_node, t50_in, grp.rising, options.tech.vdd_v,
                                     window, what, topt);
      grp.sweep.delays[i] = m.delay_ps;
      grp.sweep.slews[i] = m.slew_ps;
    } catch (const spice::SolverError& e) {
      grp.sweep.failed[i] = 1;
      grp.sweep.errors[i] = e.what();
    }
  }

  liberty::Cell assemble() {
    liberty::Cell cell;
    cell.name = spec.name;
    cell.family = spec.family;
    cell.drive_x = spec.drive_x;
    cell.area_um2 = cells::cell_area_um2(spec, options.tech);
    cell.is_flop = spec.is_flop;
    cell.output_pin = spec.output;

    for (const auto& pin : spec.inputs) {
      liberty::Pin p;
      p.name = pin;
      p.is_input = true;
      p.is_clock = spec.is_flop && pin == "CK";
      p.cap_ff = cells::pin_input_cap_ff(spec, options.tech, pin);
      cell.pins.push_back(std::move(p));
    }
    liberty::Pin out;
    out.name = spec.output;
    out.is_input = false;
    cell.pins.push_back(std::move(out));

    const auto finish_group = [&](ArcGroup& grp) {
      interpolate_failed_points(options.grid, grp.sweep, spec.name, grp.related_pin, grp.rising,
                                scenario_id, cell.fallbacks);
      return make_table(options.grid, grp.sweep.delays, grp.sweep.slews);
    };

    if (spec.is_flop) {
      liberty::TimingArc arc;
      arc.related_pin = "CK";
      arc.sense = liberty::TimingSense::kNonUnate;
      arc.clocked = true;
      arc.rise = finish_group(groups[0]);
      arc.fall = finish_group(groups[1]);
      cell.arcs.push_back(std::move(arc));
      try {
        // The rise arc's shared DC equals the setup bench's t=0 state
        // (q_rising=true, and the DC point is d_edge/slew/load independent).
        const std::vector<double>* seed =
            groups[0].dc_seed.empty() ? nullptr : &groups[0].dc_seed;
        cell.setup_ps = characterize_setup(spec, scenario, options, seed);
      } catch (const spice::SolverError& e) {
        // The setup bisection has no grid to interpolate from; surface the
        // solver chain with the (cell, scenario) tag for the quarantine.
        throw CharError(spec.name, "setup-search scenario=" + scenario_id, e.what());
      }
      cell.hold_ps = 0.0;
      return cell;
    }

    cell.truth = cells::truth_table(spec);
    auto group_it = groups.begin();
    for (std::size_t p = 0; p < spec.inputs.size(); ++p) {
      liberty::TimingArc arc;
      arc.related_pin = spec.inputs[p];
      const int unate = cells::arc_unateness(spec, spec.inputs[p]);
      arc.sense = unate > 0   ? liberty::TimingSense::kPositiveUnate
                  : unate < 0 ? liberty::TimingSense::kNegativeUnate
                              : liberty::TimingSense::kNonUnate;
      bool any = false;
      while (group_it != groups.end() && group_it->pin_index == p) {
        (group_it->rising ? arc.rise : arc.fall) = finish_group(*group_it);
        any = true;
        ++group_it;
      }
      if (!any) {
        throw std::runtime_error("characterize_cell: pin " + spec.inputs[p] + " of " + spec.name +
                                 " cannot be sensitized");
      }
      cell.arcs.push_back(std::move(arc));
    }
    return cell;
  }
};

CellCharJob::CellCharJob(const CellSpec& spec, const aging::AgingScenario& scenario,
                         const CharacterizeOptions& options)
    : impl_(std::make_unique<Impl>(spec, scenario, options)) {}

CellCharJob::~CellCharJob() = default;

std::size_t CellCharJob::task_count() const { return impl_->groups.size() * impl_->grid_size; }

void CellCharJob::run_task(std::size_t task) {
  const std::size_t g = task / impl_->grid_size;
  const std::size_t i = task % impl_->grid_size;
  impl_->run_grid_point(impl_->groups[g], i);
}

liberty::Cell CellCharJob::finish() { return impl_->assemble(); }

liberty::Cell characterize_cell(const CellSpec& spec, const aging::AgingScenario& scenario,
                                const CharacterizeOptions& options) {
  CellCharJob job(spec, scenario, options);
  util::ThreadPool::shared().parallel_for(job.task_count(),
                                          [&](std::size_t i) { job.run_task(i); });
  return job.finish();
}

}  // namespace rw::charlib
