#pragma once

/// \file number.hpp
/// The one whole-string number parser. Every number a user hands the
/// toolchain — a command-line flag value, an `RW_*` environment knob, the
/// λ indices of a `<base>_<λp>_<λn>` cell name — goes through
/// `parse_number`, so "0.5x", "12,5", " 4" and "inf" are rejected the same
/// way everywhere instead of being read as a prefix.

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace rw::util {

/// Parses all of `text` as one `T`; on false `out` is untouched. The text
/// must be non-empty and fully consumed (no leading space, no '+', no hex,
/// no trailing junk), a floating-point value must be finite, and an integer
/// must fit `T` — an unsigned `T` takes no sign. Locale-independent.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T v{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || stop != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return false;
  }
  out = v;
  return true;
}

/// `$name` parsed by `parse_number`, or `fallback` when it is unset, empty
/// or malformed.
template <typename T>
T env_number(const char* name, T fallback) {
  const char* env = std::getenv(name);
  T v = fallback;
  return env != nullptr && parse_number(env, v) ? v : fallback;
}

}  // namespace rw::util
