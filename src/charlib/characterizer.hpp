#pragma once

/// \file characterizer.hpp
/// SPICE-level cell characterization (Fig. 4(a) of the paper): for each cell,
/// each input->output arc is exercised with a sensitizing side-input vector
/// and a ramp on the switching pin, across the full OPC grid, against
/// transistor models degraded per the aging scenario. Produces a
/// liberty::Cell with NLDM delay/slew tables.
///
/// Resilience: every arc measurement runs under the solver's convergence
/// retry ladder (`CharacterizeOptions::retry`). An OPC point whose transient
/// still fails after the ladder is interpolated from converged grid
/// neighbors and recorded in `Cell::fallbacks`, so one hard grid point
/// degrades one table entry instead of aborting the campaign. Only when an
/// arc has no converged point at all does characterization fail, as a
/// `CharError` tagged with (cell, arc, OPC, scenario).
///
/// Performance: a cell's work is exposed as a `CellCharJob` — a flat,
/// deterministic queue of (arc × direction × OPC grid point) tasks, each
/// independent and slot-indexed. `characterize_cell` fans the queue over the
/// shared ThreadPool; `LibraryFactory` flattens the queues of *all* (scenario
/// × cell) pairs into one top-level work list so nested `parallel_for` calls
/// never serialize. Each arc's tasks share one deterministic DC operating
/// point (the t=0 solution is slew- and load-independent), used to warm-start
/// every transient on that arc; because the seed's value does not depend on
/// which thread computes it, tables stay bitwise identical across thread
/// counts.

#include <memory>
#include <stdexcept>

#include "aging/bti.hpp"
#include "aging/scenario.hpp"
#include "cells/topology.hpp"
#include "charlib/adaptive.hpp"
#include "charlib/opc.hpp"
#include "device/ptm45.hpp"
#include "liberty/library.hpp"
#include "spice/netlist.hpp"
#include "spice/solver.hpp"

namespace rw::charlib {

struct CharacterizeOptions {
  device::Technology tech = device::ptm45();
  aging::BtiParams bti{};
  OpcGrid grid = OpcGrid::paper();
  double wire_cap_per_node_ff = 0.08;  ///< layout parasitic per internal node
  double flop_char_slew_ps = 40.0;     ///< D/CK slews for setup search
  double flop_char_load_ff = 2.0;
  /// Convergence retry ladder for every SPICE run ($RW_CHAR_MAX_RETRIES).
  spice::RetryPolicy retry = spice::RetryPolicy::from_env();
  /// Seed every transient on an arc from the arc's shared DC operating
  /// point (computed once per arc; deterministic). Off = every grid point
  /// runs its own cold DC chain — slower, same results within solver
  /// tolerance; kept as an escape hatch and for A/B validation.
  bool warm_start_dc = true;
  /// Adaptive λ-corner lattice ($RW_CHAR_ADAPTIVE, $RW_CHAR_INTERP_TOL_PS).
  AdaptiveGridOptions adaptive = AdaptiveGridOptions::from_env();
};

/// Characterization failure carrying the (cell, arc, OPC, scenario) that
/// caused it plus the underlying solver failure chain — what the factory
/// records in its quarantine and run manifest.
class CharError : public std::runtime_error {
 public:
  CharError(std::string cell, std::string context, std::string detail);

  [[nodiscard]] const std::string& cell() const { return cell_; }
  /// e.g. "arc=A dir=rise scenario=wc10y" or "setup-search scenario=...".
  [[nodiscard]] const std::string& context() const { return context_; }
  /// The underlying failure chain.
  [[nodiscard]] const std::string& detail() const { return detail_; }

 private:
  std::string cell_;
  std::string context_;
  std::string detail_;
};

/// One cell's characterization as a flat task queue, so callers can merge
/// the queues of many cells into a single top-level `parallel_for` (the
/// factory's flattened scheduler) instead of nesting pools.
///
/// Usage: construct, run every task in [0, task_count()) exactly once (any
/// order, any threads; distinct tasks are safe concurrently), then call
/// `finish()` once from one thread. Results are bitwise independent of task
/// order and thread count. A flop's setup-time bisection is inherently
/// sequential and runs inside `finish()`.
class CellCharJob {
 public:
  CellCharJob(const cells::CellSpec& spec, const aging::AgingScenario& scenario,
              const CharacterizeOptions& options);
  ~CellCharJob();
  CellCharJob(const CellCharJob&) = delete;
  CellCharJob& operator=(const CellCharJob&) = delete;

  [[nodiscard]] std::size_t task_count() const;

  /// Runs one (arc, direction, OPC grid point) transient + measurement.
  /// SolverError is captured into the task's result slot (fallback
  /// interpolation happens in `finish()`); any other exception propagates.
  void run_task(std::size_t task);

  /// Interpolates failed points, runs the flop setup search, and assembles
  /// the liberty::Cell. \throws CharError when an arc has no converged OPC
  /// point; std::runtime_error for topology/setup bugs.
  [[nodiscard]] liberty::Cell finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Characterizes one cell under one aging scenario (builds a CellCharJob and
/// fans it over the shared ThreadPool).
/// \throws CharError when an arc has no converged OPC point even through the
/// retry ladder; std::runtime_error for topology/setup bugs (non-settling
/// output, unsensitizable pin).
liberty::Cell characterize_cell(const cells::CellSpec& spec, const aging::AgingScenario& scenario,
                                const CharacterizeOptions& options);

/// Builds the full transistor-level circuit for a cell instance with the
/// scenario's degradations applied, binding pins to fresh nodes named after
/// the pins and returning it with VDD already sourced. Exposed for tests and
/// for the Fig. 3 path experiment (cells chained at SPICE level).
struct CellCircuit {
  spice::Circuit circuit;
  spice::NodeId vdd = -1;
  spice::NodeId out = -1;
};

/// Appends a cell instance to `circuit`. `bindings(name)` must return the
/// NodeId for "VDD"/"GND"/pins when they already exist; unseen names are
/// created with `prefix` applied. Returns the output node.
spice::NodeId append_cell_instance(spice::Circuit& circuit, const cells::CellSpec& spec,
                                   const aging::AgingScenario& scenario,
                                   const CharacterizeOptions& options, const std::string& prefix,
                                   spice::NodeId vdd_node,
                                   const std::vector<std::pair<std::string, spice::NodeId>>& pin_bindings);

}  // namespace rw::charlib
