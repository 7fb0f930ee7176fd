#pragma once

/// \file interval.hpp
/// Probability intervals `[lo, hi] ⊆ [0, 1]` — the abstract domain of the
/// static duty-cycle analysis. An interval bounds the long-run frequency
/// P(net == 1) of a signal over any workload admitted by the analysis
/// contract (see analyzer.hpp). The arithmetic here is deliberately small:
/// hull/intersection for the fixed-point iteration, averaging for the
/// footnote-2 per-cell λ aggregation, and the complement that maps
/// P(gate-input high) onto pMOS stress duty cycles.

#include <string>
#include <string_view>

namespace rw::stress {

struct Interval {
  double lo = 0.0;
  double hi = 1.0;

  /// The full unit interval — the "no information" element.
  static Interval full() { return Interval{0.0, 1.0}; }
  /// Degenerate interval [p, p] (an exactly known probability).
  static Interval point(double p) { return Interval{p, p}; }

  [[nodiscard]] double width() const { return hi - lo; }
  [[nodiscard]] bool is_point() const { return lo == hi; }
  /// Proven constant 0 or 1 (the SP002 condition).
  [[nodiscard]] bool is_constant() const { return (lo == 0.0 && hi == 0.0) || (lo == 1.0 && hi == 1.0); }
  [[nodiscard]] bool contains(double p) const { return p >= lo && p <= hi; }
  [[nodiscard]] bool contains(const Interval& other) const {
    return lo <= other.lo && hi >= other.hi;
  }

  /// λp complement: a transistor gate at P(high) ∈ [lo, hi] sees
  /// P(low) ∈ [1 - hi, 1 - lo].
  [[nodiscard]] Interval complement() const { return Interval{1.0 - hi, 1.0 - lo}; }

  /// Smallest interval containing both (the widening/join of the domain).
  [[nodiscard]] Interval hull(const Interval& other) const;
  /// Clamp to [0, 1]; empty-after-clamp inputs collapse to a point.
  [[nodiscard]] Interval clamped() const;

  [[nodiscard]] bool operator==(const Interval&) const = default;

  /// "[0.25, 0.75]" with fixed decimals (stable across locales/threads).
  [[nodiscard]] std::string str() const;
};

/// Parses the analysis CLIs' "LO:HI" with 0 <= LO <= HI <= 1. False on
/// anything else, trailing junk included; `out` is untouched then.
bool parse_interval(std::string_view text, Interval& out);

/// Parses "NET=LO:HI" (see parse_interval).
bool parse_net_interval(std::string_view spec, std::string& net, Interval& out);

/// An unconstrained real interval `[lo, hi]` — the value domain shared by
/// the certified interval STA (rwprove): arrival/slew/delay bounds in ps.
/// Unlike `Interval` it is not clamped to [0, 1] and its default is the
/// degenerate point [0, 0]. The invariant lo <= hi is the caller's to keep
/// (every constructor here preserves it).
struct RealInterval {
  double lo = 0.0;
  double hi = 0.0;

  static RealInterval point(double v) { return RealInterval{v, v}; }

  [[nodiscard]] double width() const { return hi - lo; }
  [[nodiscard]] bool is_point() const { return lo == hi; }
  [[nodiscard]] bool contains(double v) const { return v >= lo && v <= hi; }
  [[nodiscard]] bool contains(const RealInterval& other) const {
    return lo <= other.lo && hi >= other.hi;
  }

  /// Smallest interval containing both.
  [[nodiscard]] RealInterval hull(const RealInterval& other) const;
  /// Exact interval sum: [a.lo + b.lo, a.hi + b.hi].
  [[nodiscard]] RealInterval operator+(const RealInterval& other) const {
    return RealInterval{lo + other.lo, hi + other.hi};
  }
  /// Widen symmetrically by `margin` (>= 0) on both sides.
  [[nodiscard]] RealInterval widened(double margin) const {
    return RealInterval{lo - margin, hi + margin};
  }

  [[nodiscard]] bool operator==(const RealInterval&) const = default;

  /// "[123.4567, 130.0000]" with fixed decimals (stable across locales).
  [[nodiscard]] std::string str() const;
};

/// Mean of `n` intervals accessed via `get(i)` — the footnote-2 pin average.
/// Averaging is monotone, so no independence assumption is needed for it.
template <typename Get>
Interval average(std::size_t n, const Get& get) {
  if (n == 0) return Interval::point(0.5);
  double lo = 0.0;
  double hi = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Interval v = get(i);
    lo += v.lo;
    hi += v.hi;
  }
  return Interval{lo / static_cast<double>(n), hi / static_cast<double>(n)};
}

}  // namespace rw::stress
