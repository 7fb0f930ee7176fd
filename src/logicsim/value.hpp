#pragma once

/// \file value.hpp
/// Logic value helpers of the event-driven timing simulator. Cells are
/// single-output with truth tables over their input pin order, so evaluation
/// is a single bit extraction.

#include <cstdint>

namespace rw::logicsim {

/// Evaluates a cell truth table for a packed input pattern (bit i = value of
/// input pin i).
inline bool eval_truth(std::uint64_t truth, unsigned pattern) {
  return ((truth >> pattern) & 1ULL) != 0;
}

/// Packs boolean pin values (low index = bit 0) into a pattern.
inline unsigned pack_pattern(const bool* values, unsigned count) {
  unsigned pattern = 0;
  for (unsigned i = 0; i < count; ++i) {
    if (values[i]) pattern |= 1U << i;
  }
  return pattern;
}

}  // namespace rw::logicsim
