#include "stress/interval.hpp"

#include <algorithm>

#include "util/number.hpp"
#include "util/strings.hpp"

namespace rw::stress {

Interval Interval::hull(const Interval& other) const {
  return Interval{std::min(lo, other.lo), std::max(hi, other.hi)};
}

Interval Interval::clamped() const {
  Interval r{std::clamp(lo, 0.0, 1.0), std::clamp(hi, 0.0, 1.0)};
  if (r.lo > r.hi) r.lo = r.hi;
  return r;
}

std::string Interval::str() const {
  return "[" + util::format_fixed(lo, 4) + ", " + util::format_fixed(hi, 4) + "]";
}

bool parse_interval(std::string_view text, Interval& out) {
  const auto colon = text.find(':');
  Interval v;
  if (colon == std::string_view::npos || !util::parse_number(text.substr(0, colon), v.lo) ||
      !util::parse_number(text.substr(colon + 1), v.hi)) {
    return false;
  }
  if (!(v.lo >= 0.0 && v.lo <= v.hi && v.hi <= 1.0)) return false;
  out = v;
  return true;
}

bool parse_net_interval(std::string_view spec, std::string& net, Interval& out) {
  const auto eq = spec.find('=');
  if (eq == std::string_view::npos || !parse_interval(spec.substr(eq + 1), out)) return false;
  net = spec.substr(0, eq);
  return true;
}

RealInterval RealInterval::hull(const RealInterval& other) const {
  return RealInterval{std::min(lo, other.lo), std::max(hi, other.hi)};
}

std::string RealInterval::str() const {
  return "[" + util::format_fixed(lo, 4) + ", " + util::format_fixed(hi, 4) + "]";
}

}  // namespace rw::stress
