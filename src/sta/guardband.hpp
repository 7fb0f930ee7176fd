#pragma once

/// \file guardband.hpp
/// Guardband computation (Section 4.2): the timing margin that must be added
/// on top of the fresh critical-path delay so the circuit still meets timing
/// after aging:   T(lifetime) = T(0) + TG.

#include "liberty/library.hpp"
#include "netlist/netlist.hpp"
#include "sta/analysis.hpp"

namespace rw::sta {

struct GuardbandReport {
  double fresh_cp_ps = 0.0;  ///< critical delay against the fresh library
  double aged_cp_ps = 0.0;   ///< critical delay against the degradation-aware library
  [[nodiscard]] double guardband_ps() const { return aged_cp_ps - fresh_cp_ps; }
  [[nodiscard]] double guardband_pct() const {
    return fresh_cp_ps > 0.0 ? 100.0 * guardband_ps() / fresh_cp_ps : 0.0;
  }
  /// Achievable frequencies (GHz) before/after aging.
  [[nodiscard]] double fresh_freq_ghz() const { return 1000.0 / fresh_cp_ps; }
  [[nodiscard]] double aged_freq_ghz() const { return 1000.0 / aged_cp_ps; }
};

/// STA of the same netlist against fresh and aged libraries (static aging
/// stress flow of Fig. 4(b)). Cell names must exist in both libraries.
GuardbandReport estimate_guardband(const netlist::Module& module,
                                   const liberty::Library& fresh_library,
                                   const liberty::Library& aged_library,
                                   const StaOptions& options = {});

}  // namespace rw::sta
