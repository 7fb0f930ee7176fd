#include "spice/waveform.hpp"

#include <algorithm>
#include <stdexcept>

namespace rw::spice {

void Waveform::append(double t_ps, double volts) {
  if (!t_.empty() && t_ps < t_.back()) {
    throw std::invalid_argument("Waveform: time must be non-decreasing");
  }
  t_.push_back(t_ps);
  v_.push_back(volts);
}

double Waveform::at(double t_ps) const {
  if (t_.empty()) throw std::out_of_range("Waveform: empty");
  if (t_ps <= t_.front()) return v_.front();
  if (t_ps >= t_.back()) return v_.back();
  const auto it = std::lower_bound(t_.begin(), t_.end(), t_ps);
  const auto i = static_cast<std::size_t>(it - t_.begin());
  const double t0 = t_[i - 1];
  const double t1 = t_[i];
  if (t1 == t0) return v_[i];
  const double w = (t_ps - t0) / (t1 - t0);
  return v_[i - 1] + w * (v_[i] - v_[i - 1]);
}

namespace {

std::optional<double> interp_crossing(double t0, double v0, double t1, double v1, double level) {
  if (v1 == v0) return std::nullopt;
  const double w = (level - v0) / (v1 - v0);
  if (w < 0.0 || w > 1.0) return std::nullopt;
  return t0 + w * (t1 - t0);
}

}  // namespace

std::optional<double> Waveform::first_crossing(double level, bool rising, double from_ps) const {
  for (std::size_t i = 1; i < t_.size(); ++i) {
    if (t_[i] < from_ps) continue;
    const double v0 = v_[i - 1];
    const double v1 = v_[i];
    const bool crosses = rising ? (v0 < level && v1 >= level) : (v0 > level && v1 <= level);
    if (!crosses) continue;
    const auto t = interp_crossing(t_[i - 1], v0, t_[i], v1, level);
    if (t && *t >= from_ps) return t;
  }
  return std::nullopt;
}

std::optional<double> Waveform::last_crossing(double level, bool rising) const {
  std::optional<double> result;
  for (std::size_t i = 1; i < t_.size(); ++i) {
    const double v0 = v_[i - 1];
    const double v1 = v_[i];
    const bool crosses = rising ? (v0 < level && v1 >= level) : (v0 > level && v1 <= level);
    if (!crosses) continue;
    if (const auto t = interp_crossing(t_[i - 1], v0, t_[i], v1, level)) result = t;
  }
  return result;
}

}  // namespace rw::spice
