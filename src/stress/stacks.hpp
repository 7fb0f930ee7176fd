#pragma once

/// \file stacks.hpp
/// Transistor-level refinement of the per-instance duty-cycle bounds: given
/// interval bounds on a cell's pin probabilities, derive a provable stress
/// duty-cycle interval for every transistor in the cell's stacks. A pMOS
/// device ages (NBTI) while its gate is low — λ bound = complement of the
/// gate-node probability; an nMOS device ages (PBTI) while its gate is high.
/// Internal stage outputs are propagated through each stage's pull-down
/// conduction function with the same independent/correlated transfer split
/// as the netlist analysis: within a cell every stage output is a function
/// of the pins, so any shared pin dependence forces the correlation-safe
/// bound. This quantifies how much the paper's footnote-2 *pin average*
/// smears per-device stress — the spread is reported by bench/stress_bounds.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cells/topology.hpp"
#include "stress/interval.hpp"

namespace rw::stress {

/// A staged combinational cell's stage network compiled to slot indices.
/// Slots [0, n_pins) are the pins and slot n_pins + s is stage s's output;
/// every name a stage or a transistor gate reads resolves to the slot that
/// defines it at that point of the cascade (pins by their last occurrence,
/// transistor gates after the last stage), or to kUnknownSlot when nothing
/// does — read as ⊤ correlated with every pin. That is exactly how the
/// string-keyed spec reads, without a name lookup per evaluation.
struct CompiledCell {
  static constexpr int kUnknownSlot = -1;
  struct Stage {
    std::vector<int> signals;  ///< slot per pull-down signal, first-appearance order
    std::uint64_t truth = 0;   ///< pull-down conduction over `signals` (≤ 6 of them)
  };
  struct Transistor {
    device::MosType type = device::MosType::kNmos;
    double width_um = 0.0;
    int gate = kUnknownSlot;  ///< gate-node slot
    std::string gate_name;
  };
  int n_pins = 0;
  std::vector<Stage> stages;
  std::vector<Transistor> transistors;  ///< `cells::materialize` order

  [[nodiscard]] int slot_count() const { return n_pins + static_cast<int>(stages.size()); }
};

/// The compiled stage network of the catalog cell named `name`, or null when
/// the catalog has no staged combinational cell of that name. Each cell is
/// compiled on first use (a design instantiates a few dozen of the catalog's
/// cells, and a process that never asks pays nothing) and kept for the
/// process; safe to call concurrently.
const CompiledCell* compiled_catalog_cell(const std::string& name);

struct TransistorStress {
  device::MosType type = device::MosType::kNmos;
  std::string gate;    ///< gate node: a pin or an internal stage output
  double width_um = 0.0;
  /// Bound on the fraction of time the device is under BTI stress
  /// (pMOS: gate low → NBTI λp; nMOS: gate high → PBTI λn).
  Interval lambda;
};

/// Per-transistor stress bounds for a combinational cell spec.
/// `pin_intervals` is aligned with `spec.inputs`. \throws std::invalid_argument
/// for flops (no stage structure) or on size mismatch.
std::vector<TransistorStress> transistor_stress_bounds(
    const cells::CellSpec& spec, const std::vector<Interval>& pin_intervals);

struct TransistorActivity {
  device::MosType type = device::MosType::kNmos;
  std::string gate;    ///< gate node: a pin or an internal stage output
  double width_um = 0.0;
  /// Bound on the gate node's toggles per cycle — the HCI stress driver
  /// (hot carriers are injected during switching events, so per-device HCI
  /// exposure scales with gate-node activity, not duty cycle).
  Interval toggles;
};

/// Per-transistor switching-activity bounds for a combinational cell spec:
/// the stage-output toggle intervals are propagated through each stage's
/// pull-down conduction function with the density transfer of
/// activity_bounds.hpp (a static CMOS stage inverts, and negation preserves
/// toggles), using the same independent/correlated split as
/// `transistor_stress_bounds`. `pin_probabilities` and `pin_toggles` are
/// aligned with `spec.inputs`. \throws std::invalid_argument for flops or on
/// size mismatch.
std::vector<TransistorActivity> transistor_activity_bounds(
    const cells::CellSpec& spec, const std::vector<Interval>& pin_probabilities,
    const std::vector<Interval>& pin_toggles);

/// The HCI proxy of `transistor_activity_bounds` without the per-device
/// list: over every transistor, the largest toggle lower bound and the
/// largest upper bound; null when the cell has no transistors.
/// `pin_probabilities` and `pin_toggles` hold `cell.n_pins` entries each.
/// Allocation-free for cells of up to 16 slots (every catalog cell).
[[nodiscard]] std::optional<RealInterval> worst_transistor_toggles(
    const CompiledCell& cell, const Interval* pin_probabilities, const Interval* pin_toggles);

/// Widest per-device deviation from the cell-level footnote-2 average:
/// max over devices of the distance between the device's λ interval midpoint
/// and the aggregate λ midpoint for its polarity. Used by the bench to
/// report how coarse the paper's per-cell averaging is.
double max_stack_spread(const std::vector<TransistorStress>& stresses,
                        const Interval& lambda_p, const Interval& lambda_n);

}  // namespace rw::stress
