#pragma once

/// \file library.hpp
/// The cell library data model: cells with pins, NLDM timing arcs, function
/// (truth table over input pins), area, and flop constraints. A `Library` is
/// what timing analysis and synthesis consume — plugging a degradation-aware
/// library into them is the paper's core mechanism.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "liberty/table.hpp"

namespace rw::liberty {

struct Pin {
  std::string name;
  bool is_input = true;
  bool is_clock = false;
  double cap_ff = 0.0;  ///< input pin capacitance (0 for outputs)
};

/// One OPC grid point whose SPICE solve never converged even through the
/// retry ladder; its table entry was interpolated from converged neighbors.
/// Carried through Liberty text as the `rw_fallback` complex attribute
/// ("<related_pin>:<rise|fall>:<slew_index>:<load_index>") so lint (LB006)
/// and STA consumers can see which entries are second-class data.
struct FallbackPoint {
  std::string related_pin;
  bool rising = true;   ///< rise table (else fall)
  int slew_index = 0;   ///< index into the table's slew axis
  int load_index = 0;   ///< index into the table's load axis

  [[nodiscard]] bool operator==(const FallbackPoint&) const = default;
};

/// Marks a cell whose tables were served by certified interpolation between
/// characterized λ-lattice corners instead of direct SPICE characterization
/// (the adaptive corner grid). Carried through Liberty text as the
/// `rw_interp` complex attribute
/// ("<λp_lo>:<λp_hi>:<λn_lo>:<λn_hi>:<bound_ps>") so lint (LB007) and flow
/// consumers can audit the certified error bound against their tolerance.
struct InterpMarker {
  double lambda_p_lo = 0.0;  ///< bracketing lattice corner, λp low side
  double lambda_p_hi = 0.0;
  double lambda_n_lo = 0.0;
  double lambda_n_hi = 0.0;
  /// Certified worst-case error over every interpolated entry [ps]: the true
  /// value lies within the bracketing corners' range for per-axis monotone
  /// aging response, so |error| <= max(v - min_corner, max_corner - v).
  double bound_ps = 0.0;

  [[nodiscard]] bool operator==(const InterpMarker&) const = default;
};

class Cell {
 public:
  std::string name;    ///< library name; merged libraries use "<base>_<λp>_<λn>"
  std::string family;  ///< function family, e.g. "NAND2" (drive sizing moves within it)
  int drive_x = 1;
  double area_um2 = 0.0;
  bool is_flop = false;
  double setup_ps = 0.0;  ///< flop setup constraint (0 for combinational)
  double hold_ps = 0.0;
  std::vector<Pin> pins;   ///< inputs first (truth-table bit order), then the output
  std::string output_pin;  ///< single-output cells only
  std::uint64_t truth = 0;  ///< over input pins in pin order; unused for flops
  std::vector<TimingArc> arcs;
  /// Interpolated (non-converged) grid points; empty for healthy cells.
  std::vector<FallbackPoint> fallbacks;
  /// Set when the whole cell was λ-interpolated (adaptive corner grid).
  std::optional<InterpMarker> interp;

  [[nodiscard]] std::vector<const Pin*> input_pins() const;
  /// `input_pins()[j]` without building the vector. \throws std::out_of_range
  /// when the cell has fewer than j + 1 inputs.
  [[nodiscard]] const Pin& input_pin(std::size_t j) const;
  [[nodiscard]] int n_inputs() const;
  [[nodiscard]] const Pin* find_pin(const std::string& pin_name) const;
  [[nodiscard]] double input_cap_ff(const std::string& pin_name) const;
  /// Arc whose related_pin matches; nullptr when absent.
  [[nodiscard]] const TimingArc* arc_from(const std::string& related_pin) const;
};

class Library {
 public:
  explicit Library(std::string name = "reliaware");

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// \throws std::invalid_argument on duplicate cell name.
  void add_cell(Cell cell);

  [[nodiscard]] const Cell* find(const std::string& cell_name) const;
  /// \throws std::out_of_range when absent.
  [[nodiscard]] const Cell& at(const std::string& cell_name) const;
  [[nodiscard]] const std::vector<Cell>& cells() const { return cells_; }
  [[nodiscard]] std::size_t size() const { return cells_.size(); }
  /// Moves a cell out of a library that is about to be destroyed.
  /// \throws std::out_of_range when absent.
  [[nodiscard]] Cell take(const std::string& cell_name) &&;

  /// Cells of a family ordered by drive strength (for gate sizing).
  [[nodiscard]] std::vector<const Cell*> family(const std::string& family_name) const;

 private:
  std::string name_;
  std::vector<Cell> cells_;
  std::unordered_map<std::string, std::size_t> index_;
};

/// Which λ indices `resolve_cell` maps to their base cell.
enum class IndexRange {
  kAny,   ///< every index, so a lint rule can report an out-of-range one
  kUnit,  ///< only indices in [0,1], the ones a merged library holds
};

/// How an instance's cell name maps onto a library.
struct ResolvedCell {
  const Cell* cell = nullptr;  ///< exact match, or the base cell for indexed names
  bool indexed = false;  ///< name parses as `<base>_<λp>_<λn>` (whatever the range)
  bool exact = false;    ///< the library holds the name verbatim
  std::string base;      ///< base cell name (== name when !indexed)
  double lambda_p = 0.0;
  double lambda_n = 0.0;
};

/// Looks up an instance's cell name: the exact name first, else, for a
/// λ-indexed name whose index is in `range`, its base cell. Every corner of
/// a cell shares the base's pins and Boolean function, so those stay
/// checkable even when the indexed corner itself is absent.
ResolvedCell resolve_cell(const Library& library, const std::string& name, IndexRange range);

}  // namespace rw::liberty
