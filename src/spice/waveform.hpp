#pragma once

/// \file waveform.hpp
/// Sampled voltage waveform produced by the transient solver, with the
/// crossing-time queries needed for delay/slew measurement.

#include <optional>
#include <vector>

namespace rw::spice {

class Waveform {
 public:
  void append(double t_ps, double volts);

  [[nodiscard]] std::size_t size() const { return t_.size(); }
  [[nodiscard]] bool empty() const { return t_.empty(); }
  [[nodiscard]] double time(std::size_t i) const { return t_[i]; }
  [[nodiscard]] double value(std::size_t i) const { return v_[i]; }
  [[nodiscard]] double front_value() const { return v_.front(); }
  [[nodiscard]] double back_value() const { return v_.back(); }
  [[nodiscard]] double back_time() const { return t_.back(); }

  /// Voltage at arbitrary time (linear interpolation; clamped at the ends).
  [[nodiscard]] double at(double t_ps) const;

  /// Time of the *first* crossing of `level` in the given direction at or
  /// after `from_ps` (linear interpolation between samples).
  [[nodiscard]] std::optional<double> first_crossing(double level, bool rising,
                                                     double from_ps = 0.0) const;

  /// Time of the *last* crossing of `level` in the given direction — robust
  /// against non-monotone glitches (short-circuit bumps) before settling.
  [[nodiscard]] std::optional<double> last_crossing(double level, bool rising) const;

 private:
  std::vector<double> t_;
  std::vector<double> v_;
};

}  // namespace rw::spice
