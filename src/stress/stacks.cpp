#include "stress/stacks.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "cells/catalog.hpp"
#include "stress/activity_bounds.hpp"
#include "stress/analyzer.hpp"

namespace rw::stress {

namespace {

constexpr int kMaxSignals = 6;
/// Slot buffers up to this size live on the stack (every catalog cell fits).
constexpr int kInlineSlots = 16;

/// Probability, toggle density and pin support for one slot of the cell.
struct NodeState {
  Interval prob = Interval::full();
  Interval dens = Interval::full();
  std::uint64_t pin_support = 0;
};

std::uint64_t all_pins_mask(int n_pins) {
  return n_pins >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n_pins) - 1;
}

/// Build the pull-down conduction truth table over the stage's signals.
std::uint64_t stage_truth(const cells::Stage& stage, const std::vector<std::string>& signals) {
  const int k = static_cast<int>(signals.size());
  std::uint64_t truth = 0;
  for (std::uint64_t pat = 0; pat < (std::uint64_t{1} << k); ++pat) {
    const bool on = stage.pulldown.conducts([&](const std::string& sig) {
      for (int i = 0; i < k; ++i) {
        if (signals[static_cast<std::size_t>(i)] == sig) return ((pat >> i) & 1u) != 0;
      }
      return false;
    });
    if (on) truth |= std::uint64_t{1} << pat;
  }
  return truth;
}

/// Runs `eval` over a buffer of `n` default states: on the stack when it
/// fits, else on the heap.
template <class Eval>
auto with_slots(int n, const Eval& eval) {
  if (n <= kInlineSlots) {
    std::array<NodeState, kInlineSlots> slots{};
    return eval(slots.data());
  }
  std::vector<NodeState> slots(static_cast<std::size_t>(n));
  return eval(slots.data());
}

/// Propagates pin probabilities and toggle densities through the stages
/// into `slots`; returns the state an unknown name reads as.
NodeState propagate(const CompiledCell& cell, const Interval* probs, const Interval* toggles,
                    NodeState* slots) {
  // Sound fallback density for unknown nodes: at most one change per sample
  // boundary unless a pin itself is intra-cycle (clock-fed, hi > 1).
  double top_hi = 1.0;
  for (int i = 0; i < cell.n_pins; ++i) top_hi = std::max(top_hi, toggles[i].hi);
  const NodeState unknown{Interval::full(), Interval{0.0, top_hi}, all_pins_mask(cell.n_pins)};
  const auto state_of = [&](int slot) {
    return slot == CompiledCell::kUnknownSlot ? unknown : slots[slot];
  };
  for (int i = 0; i < cell.n_pins; ++i) {
    slots[i] = NodeState{probs[i].clamped(), toggles[i], std::uint64_t{1} << i};
  }
  for (std::size_t s = 0; s < cell.stages.size(); ++s) {
    const CompiledCell::Stage& stage = cell.stages[s];
    const int k = static_cast<int>(stage.signals.size());
    NodeState out;
    for (const int sig : stage.signals) out.pin_support |= state_of(sig).pin_support;
    if (k > kMaxSignals) {
      double sum = 0.0;
      bool clockish = false;
      for (const int sig : stage.signals) {
        const double h = state_of(sig).dens.hi;
        sum += h;
        if (h > 1.0) clockish = true;
      }
      out.prob = Interval::full();
      out.dens = Interval{0.0, clockish ? sum : std::min(1.0, sum)};
    } else {
      Interval p[kMaxSignals];
      Interval d[kMaxSignals];
      bool correlated = false;
      std::uint64_t seen = 0;
      for (int i = 0; i < k; ++i) {
        const NodeState st = state_of(stage.signals[static_cast<std::size_t>(i)]);
        p[i] = st.prob;
        d[i] = st.dens;
        if (!st.prob.is_constant()) {
          if ((seen & st.pin_support) != 0) correlated = true;
          seen |= st.pin_support;
        }
      }
      // The stage output is the complement of the conduction function, and
      // negation preserves toggles: D(out) = D(conducting).
      out.dens = correlated ? density_correlated(stage.truth, k, p, d)
                            : density_independent(stage.truth, k, p, d);
      const Interval conducting = correlated ? transfer_correlated(stage.truth, k, p)
                                             : transfer_independent(stage.truth, k, p);
      out.prob = conducting.complement();
    }
    slots[cell.n_pins + static_cast<int>(s)] = out;
  }
  return unknown;
}

/// Compiles a staged combinational spec.
CompiledCell compile_cell(const cells::CellSpec& spec) {
  CompiledCell cell;
  cell.n_pins = static_cast<int>(spec.inputs.size());
  std::unordered_map<std::string, int> slot_of;
  for (std::size_t i = 0; i < spec.inputs.size(); ++i) {
    slot_of[spec.inputs[i]] = static_cast<int>(i);
  }
  const auto lookup = [&](const std::string& name) {
    const auto it = slot_of.find(name);
    return it != slot_of.end() ? it->second : CompiledCell::kUnknownSlot;
  };
  for (std::size_t s = 0; s < spec.stages.size(); ++s) {
    const cells::Stage& stage = spec.stages[s];
    const std::vector<std::string> signals = stage.pulldown.signals();
    CompiledCell::Stage& compiled = cell.stages.emplace_back();
    for (const std::string& sig : signals) compiled.signals.push_back(lookup(sig));
    if (signals.size() <= static_cast<std::size_t>(kMaxSignals)) {
      compiled.truth = stage_truth(stage, signals);
    }
    slot_of[stage.out] = cell.n_pins + static_cast<int>(s);
  }
  for (const cells::PlacedTransistor& t : cells::materialize(spec, device::ptm45())) {
    cell.transistors.push_back(CompiledCell::Transistor{t.type, t.width_um, lookup(t.gate), t.gate});
  }
  return cell;
}

/// The catalog's compiled cells, each built on first use.
class CatalogStages {
 public:
  CatalogStages()
      : once_(cells::catalog().size()), compiled_(cells::catalog().size()) {
    const auto& catalog = cells::catalog();
    for (std::size_t i = 0; i < catalog.size(); ++i) index_.emplace(catalog[i].name, i);
  }

  const CompiledCell* at(std::size_t i) {
    std::call_once(once_[i], [&] {
      const cells::CellSpec& spec = cells::catalog()[i];
      if (!spec.is_flop && !spec.stages.empty()) compiled_[i] = compile_cell(spec);
    });
    return compiled_[i] ? &*compiled_[i] : nullptr;
  }

  const CompiledCell* find(const std::string& name) {
    const auto it = index_.find(name);
    return it == index_.end() ? nullptr : at(it->second);
  }

 private:
  std::unordered_map<std::string_view, std::size_t> index_;  ///< first cell of each name
  std::vector<std::once_flag> once_;
  std::vector<std::optional<CompiledCell>> compiled_;
};

CatalogStages& catalog_stages() {
  static CatalogStages stages;
  return stages;
}

/// `spec` compiled: the cached form for a catalog cell, else compiled into
/// `local`. `spec` must be staged and combinational.
const CompiledCell& compiled_for(const cells::CellSpec& spec,
                                 std::optional<CompiledCell>& local) {
  const auto& catalog = cells::catalog();
  const std::less_equal<const cells::CellSpec*> le;
  if (!catalog.empty() && le(catalog.data(), &spec) && le(&spec, &catalog.back())) {
    return *catalog_stages().at(static_cast<std::size_t>(&spec - catalog.data()));
  }
  return local.emplace(compile_cell(spec));
}

}  // namespace

const CompiledCell* compiled_catalog_cell(const std::string& name) {
  return catalog_stages().find(name);
}

std::vector<TransistorStress> transistor_stress_bounds(
    const cells::CellSpec& spec, const std::vector<Interval>& pin_intervals) {
  if (spec.is_flop || spec.stages.empty()) {
    throw std::invalid_argument("stress: transistor bounds need a staged combinational cell");
  }
  if (pin_intervals.size() != spec.inputs.size()) {
    throw std::invalid_argument("stress: pin interval count does not match '" + spec.name + "'");
  }
  std::optional<CompiledCell> local;
  const CompiledCell& cell = compiled_for(spec, local);
  // The probability half of the propagation; the densities go unused.
  const std::vector<Interval> quiet(pin_intervals.size(), Interval::point(0.0));
  std::vector<NodeState> slots(static_cast<std::size_t>(cell.slot_count()));
  const NodeState unknown = propagate(cell, pin_intervals.data(), quiet.data(), slots.data());

  std::vector<TransistorStress> result;
  result.reserve(cell.transistors.size());
  for (const CompiledCell::Transistor& t : cell.transistors) {
    const Interval gate_high =
        t.gate == CompiledCell::kUnknownSlot ? unknown.prob : slots[static_cast<std::size_t>(t.gate)].prob;
    TransistorStress ts;
    ts.type = t.type;
    ts.gate = t.gate_name;
    ts.width_um = t.width_um;
    // nMOS stressed while the gate is high (PBTI); pMOS while low (NBTI).
    ts.lambda = t.type == device::MosType::kNmos ? gate_high : gate_high.complement();
    result.push_back(ts);
  }
  return result;
}

std::vector<TransistorActivity> transistor_activity_bounds(
    const cells::CellSpec& spec, const std::vector<Interval>& pin_probabilities,
    const std::vector<Interval>& pin_toggles) {
  if (spec.is_flop || spec.stages.empty()) {
    throw std::invalid_argument("stress: transistor activity needs a staged combinational cell");
  }
  if (pin_probabilities.size() != spec.inputs.size() ||
      pin_toggles.size() != spec.inputs.size()) {
    throw std::invalid_argument("stress: pin interval count does not match '" + spec.name + "'");
  }
  std::optional<CompiledCell> local;
  const CompiledCell& cell = compiled_for(spec, local);
  std::vector<NodeState> slots(static_cast<std::size_t>(cell.slot_count()));
  const NodeState unknown =
      propagate(cell, pin_probabilities.data(), pin_toggles.data(), slots.data());

  std::vector<TransistorActivity> result;
  result.reserve(cell.transistors.size());
  for (const CompiledCell::Transistor& t : cell.transistors) {
    TransistorActivity ta;
    ta.type = t.type;
    ta.gate = t.gate_name;
    ta.width_um = t.width_um;
    ta.toggles =
        t.gate == CompiledCell::kUnknownSlot ? unknown.dens : slots[static_cast<std::size_t>(t.gate)].dens;
    result.push_back(ta);
  }
  return result;
}

std::optional<RealInterval> worst_transistor_toggles(const CompiledCell& cell,
                                                     const Interval* pin_probabilities,
                                                     const Interval* pin_toggles) {
  if (cell.transistors.empty()) return std::nullopt;
  return with_slots(cell.slot_count(), [&](NodeState* slots) {
    const NodeState unknown = propagate(cell, pin_probabilities, pin_toggles, slots);
    RealInterval worst{0.0, 0.0};
    for (const CompiledCell::Transistor& t : cell.transistors) {
      const Interval& g = t.gate == CompiledCell::kUnknownSlot ? unknown.dens : slots[t.gate].dens;
      worst.lo = std::max(worst.lo, g.lo);
      worst.hi = std::max(worst.hi, g.hi);
    }
    return worst;
  });
}

double max_stack_spread(const std::vector<TransistorStress>& stresses,
                        const Interval& lambda_p, const Interval& lambda_n) {
  double spread = 0.0;
  for (const TransistorStress& t : stresses) {
    const Interval& agg = t.type == device::MosType::kPmos ? lambda_p : lambda_n;
    const double dev_mid = 0.5 * (t.lambda.lo + t.lambda.hi);
    const double agg_mid = 0.5 * (agg.lo + agg.hi);
    spread = std::max(spread, std::abs(dev_mid - agg_mid));
  }
  return spread;
}

}  // namespace rw::stress
