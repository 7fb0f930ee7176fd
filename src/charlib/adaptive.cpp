#include "charlib/adaptive.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "util/number.hpp"
#include "util/strings.hpp"

namespace rw::charlib {

namespace {

struct AtomicAdaptiveCounters {
  std::atomic<std::uint64_t> cells_interpolated{0};
  std::atomic<std::uint64_t> corners_refined{0};
  std::atomic<std::uint64_t> solves_avoided{0};
};

AtomicAdaptiveCounters& adaptive_counter_slots() {
  static AtomicAdaptiveCounters c;
  return c;
}

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

AdaptiveCounters adaptive_counters() {
  const auto& c = adaptive_counter_slots();
  AdaptiveCounters out;
  out.cells_interpolated = c.cells_interpolated.load(kRelaxed);
  out.corners_refined = c.corners_refined.load(kRelaxed);
  out.solves_avoided_by_interp = c.solves_avoided.load(kRelaxed);
  return out;
}

void reset_adaptive_counters() {
  auto& c = adaptive_counter_slots();
  c.cells_interpolated.store(0, kRelaxed);
  c.corners_refined.store(0, kRelaxed);
  c.solves_avoided.store(0, kRelaxed);
}

namespace stats {
void add_cell_interpolated(std::uint64_t solves_avoided) {
  adaptive_counter_slots().cells_interpolated.fetch_add(1, kRelaxed);
  adaptive_counter_slots().solves_avoided.fetch_add(solves_avoided, kRelaxed);
}
void add_corner_refined() { adaptive_counter_slots().corners_refined.fetch_add(1, kRelaxed); }
}  // namespace stats

namespace {

constexpr double kLambdaEps = 1e-9;

bool env_flag(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return false;
  const std::string v(env);
  return v != "0" && v != "false" && v != "off" && v != "no";
}

/// A positive `$name`, else `fallback`.
double env_positive(const char* name, double fallback) {
  const double v = util::env_number(name, fallback);
  return v > 0.0 ? v : fallback;
}

bool is_multiple(double lambda, double step) {
  const double q = lambda / step;
  return std::fabs(q - std::round(q)) < kLambdaEps / step;
}

/// Bracketing lattice values for one λ axis: lo <= lambda <= hi, both
/// multiples of `step` clamped to [0, 1]; weight is the hi-side fraction.
void axis_bracket(double lambda, double step, double& lo, double& hi, double& w) {
  const double clamped = std::clamp(lambda, 0.0, 1.0);
  lo = std::floor((clamped + kLambdaEps) / step) * step;
  lo = std::clamp(lo, 0.0, 1.0);
  hi = std::min(lo + step, 1.0);
  if (is_multiple(clamped, step)) {
    lo = hi = std::round(clamped / step) * step;
  }
  w = (hi > lo + kLambdaEps) ? (clamped - lo) / (hi - lo) : 0.0;
}

}  // namespace

AdaptiveGridOptions AdaptiveGridOptions::from_env() {
  AdaptiveGridOptions o;
  o.enabled = env_flag("RW_CHAR_ADAPTIVE");
  o.interp_tol_ps = env_positive("RW_CHAR_INTERP_TOL_PS", o.interp_tol_ps);
  o.lattice_step = env_positive("RW_CHAR_LATTICE_STEP", o.lattice_step);
  return o;
}

std::string AdaptiveGridOptions::cache_tag() const {
  if (!enabled) return "";
  return "adaptive-s" + util::format_fixed(lattice_step, 2) + "-t" +
         util::format_fixed(interp_tol_ps, 2);
}

bool on_lattice(const aging::AgingScenario& scenario, double step) {
  if (scenario.is_fresh()) return true;
  return is_multiple(scenario.lambda_p, step) && is_multiple(scenario.lambda_n, step);
}

LatticeBracket lattice_bracket(const aging::AgingScenario& target, double step) {
  LatticeBracket b;
  double wp = 0.0;
  double wn = 0.0;
  axis_bracket(target.lambda_p, step, b.lambda_p_lo, b.lambda_p_hi, wp);
  axis_bracket(target.lambda_n, step, b.lambda_n_lo, b.lambda_n_hi, wn);

  const auto add = [&](double lp, double ln, double w) {
    aging::AgingScenario s = target;
    s.lambda_p = lp;
    s.lambda_n = ln;
    for (std::size_t i = 0; i < b.corners.size(); ++i) {
      if (b.corners[i].lambda_p == lp && b.corners[i].lambda_n == ln) {
        b.weights[i] += w;
        return;
      }
    }
    b.corners.push_back(s);
    b.weights.push_back(w);
  };
  // λn varies fastest, low before high; duplicate corners merge weights, so
  // an on-axis or on-lattice target yields 2 or 1 corners.
  add(b.lambda_p_lo, b.lambda_n_lo, (1.0 - wp) * (1.0 - wn));
  add(b.lambda_p_lo, b.lambda_n_hi, (1.0 - wp) * wn);
  add(b.lambda_p_hi, b.lambda_n_lo, wp * (1.0 - wn));
  add(b.lambda_p_hi, b.lambda_n_hi, wp * wn);

  // Drop merged-away zero-weight corners (deterministically, keeping order).
  for (std::size_t i = b.corners.size(); i-- > 0;) {
    if (b.weights[i] <= 0.0 && b.corners.size() > 1) {
      b.corners.erase(b.corners.begin() + static_cast<std::ptrdiff_t>(i));
      b.weights.erase(b.weights.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  return b;
}

namespace {

/// Interpolates one scalar across corners and folds its certified bound.
double blend(const std::vector<const liberty::Cell*>& corners, const std::vector<double>& weights,
             double& bound_ps, const std::vector<double>& values) {
  double v = 0.0;
  double lo = values[0];
  double hi = values[0];
  for (std::size_t i = 0; i < values.size(); ++i) {
    v += weights[i] * values[i];
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  (void)corners;
  bound_ps = std::max(bound_ps, std::max(v - lo, hi - v));
  return v;
}

void interpolate_table(const std::vector<const liberty::Cell*>& corners,
                       const std::vector<double>& weights,
                       const std::vector<const liberty::TimingTable*>& tables,
                       liberty::TimingTable& out, double& bound_ps) {
  std::vector<double> samples(tables.size());
  for (std::size_t e = 0; e < out.delay_ps.values().size(); ++e) {
    for (std::size_t i = 0; i < tables.size(); ++i) samples[i] = tables[i]->delay_ps.values()[e];
    out.delay_ps.values()[e] = blend(corners, weights, bound_ps, samples);
    for (std::size_t i = 0; i < tables.size(); ++i) {
      samples[i] = tables[i]->out_slew_ps.values()[e];
    }
    out.out_slew_ps.values()[e] = blend(corners, weights, bound_ps, samples);
  }
}

}  // namespace

InterpolatedCell interpolate_cell(const LatticeBracket& bracket,
                                  const std::vector<const liberty::Cell*>& corners) {
  if (corners.empty() || corners.size() != bracket.corners.size()) {
    throw std::invalid_argument("interpolate_cell: corner/bracket size mismatch");
  }
  const liberty::Cell& base = *corners[0];
  for (const liberty::Cell* c : corners) {
    if (c->name != base.name || c->arcs.size() != base.arcs.size() ||
        c->is_flop != base.is_flop) {
      throw std::invalid_argument("interpolate_cell: structurally different corner cells for " +
                                  base.name);
    }
  }

  InterpolatedCell out;
  out.cell = base;
  double& bound = out.bound_ps;

  std::vector<double> samples(corners.size());
  const auto blend_scalar = [&](auto member) {
    for (std::size_t i = 0; i < corners.size(); ++i) samples[i] = (*corners[i]).*member;
    return blend(corners, bracket.weights, bound, samples);
  };
  out.cell.setup_ps = blend_scalar(&liberty::Cell::setup_ps);
  out.cell.hold_ps = blend_scalar(&liberty::Cell::hold_ps);

  for (std::size_t a = 0; a < base.arcs.size(); ++a) {
    std::vector<const liberty::TimingTable*> rise;
    std::vector<const liberty::TimingTable*> fall;
    for (const liberty::Cell* c : corners) {
      if (c->arcs[a].related_pin != base.arcs[a].related_pin ||
          c->arcs[a].rise.empty() != base.arcs[a].rise.empty() ||
          c->arcs[a].fall.empty() != base.arcs[a].fall.empty()) {
        throw std::invalid_argument("interpolate_cell: arc mismatch in " + base.name);
      }
      rise.push_back(&c->arcs[a].rise);
      fall.push_back(&c->arcs[a].fall);
    }
    if (!base.arcs[a].rise.empty()) {
      interpolate_table(corners, bracket.weights, rise, out.cell.arcs[a].rise, bound);
    }
    if (!base.arcs[a].fall.empty()) {
      interpolate_table(corners, bracket.weights, fall, out.cell.arcs[a].fall, bound);
    }
  }

  // Union of the corners' fallback points: entries resting on interpolated
  // convergence fallbacks stay flagged in the derived cell too.
  out.cell.fallbacks.clear();
  for (const liberty::Cell* c : corners) {
    for (const auto& fb : c->fallbacks) {
      if (std::find(out.cell.fallbacks.begin(), out.cell.fallbacks.end(), fb) ==
          out.cell.fallbacks.end()) {
        out.cell.fallbacks.push_back(fb);
      }
    }
  }

  out.cell.interp = liberty::InterpMarker{bracket.lambda_p_lo, bracket.lambda_p_hi,
                                          bracket.lambda_n_lo, bracket.lambda_n_hi, bound};
  return out;
}

}  // namespace rw::charlib
