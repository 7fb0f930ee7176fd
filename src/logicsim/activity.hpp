#pragma once

/// \file activity.hpp
/// Signal-activity collection and transistor duty-cycle extraction. BTI
/// stress conditions follow from pin logic values: an nMOS is stressed
/// (PBTI) while its gate input is high, a pMOS (NBTI) while its gate input
/// is low. Per the paper's simplification (footnote 2), all nMOS of a cell
/// share Avg(λn) and all pMOS share Avg(λp), computed from the cell's input
/// pins — which makes λp = 1 − λn exactly, as in the paper's AND2_0.40_0.60
/// example. The collector also counts per-net transitions between
/// consecutive observations — the measured toggle rates the AC001 activity
/// oracle compares against the proven bounds of stress/activity_bounds.hpp.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "logicsim/simulator.hpp"
#include "netlist/annotate.hpp"

namespace rw::logicsim {

class ActivityCollector {
 public:
  explicit ActivityCollector(int net_count);

  /// Samples every net of an evaluated simulator (call once per cycle, after
  /// evaluate() and before clock_edge()).
  void observe(const CycleSimulator& sim);

  [[nodiscard]] std::size_t cycles() const { return cycles_; }
  /// P(net == 1) over the observed cycles; nullopt when nothing was observed
  /// (there is no meaningful default — callers must decide, not trust 0.5).
  [[nodiscard]] std::optional<double> probability_high(netlist::NetId net) const;
  /// Measured toggles per cycle: the fraction of consecutive observation
  /// pairs on which the net changed value. nullopt with fewer than two
  /// observations (no boundary has been seen).
  [[nodiscard]] std::optional<double> toggle_rate(netlist::NetId net) const;

 private:
  std::vector<std::size_t> high_counts_;
  std::vector<std::size_t> toggle_counts_;
  std::vector<std::uint8_t> last_;  ///< value at the previous observation
  std::size_t cycles_ = 0;
};

/// Per-instance average duty cycles. Clock pins are assigned P(high) = 0.5
/// (an ideal 50 % duty clock, which the cycle simulator does not model as a
/// net value). \throws std::invalid_argument when the collector observed no
/// cycles — extracting duties from no data would silently pin every net at
/// an invented 0.5.
std::vector<netlist::InstanceDuty> extract_duty_cycles(const netlist::Module& module,
                                                       const liberty::Library& library,
                                                       const ActivityCollector& activity);

}  // namespace rw::logicsim
