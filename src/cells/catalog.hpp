#pragma once

/// \file catalog.hpp
/// The standard-cell catalog: a Nangate-45nm-style set of 60+ combinational
/// and sequential cells across drive strengths, expressed as CellSpec
/// topologies. This is the "netlist of cells" input of Fig. 4(a).

#include <vector>

#include "cells/topology.hpp"

namespace rw::cells {

/// Builds the full catalog (deterministic order; names unique).
const std::vector<CellSpec>& catalog();

/// Finds a cell by exact name. \throws std::out_of_range when absent.
const CellSpec& find_cell(const std::string& name);

}  // namespace rw::cells
