#pragma once

/// \file sizing.hpp
/// Timing-driven gate sizing and area recovery. Greedy critical-path
/// upsizing within cell families (drive strengths are alternates of the same
/// function) followed by slack-guarded downsizing of off-critical cells.
/// Like the mapper, all decisions read the *provided* library — the aging
/// optimization lever of the paper.

#include "liberty/library.hpp"
#include "netlist/netlist.hpp"
#include "sta/analysis.hpp"

namespace rw::synth {

struct SizingOptions {
  sta::StaOptions sta{};
  int max_upsize_passes = 40;
  int candidates_per_pass = 60;  ///< critical-path instances tried per pass
  double downsize_slack_margin_ps = 30.0;  ///< only downsize cells with more slack
  bool enable_area_recovery = true;
  int max_buffer_rounds = 20;              ///< slew-sharpening buffer insertions
  double buffer_slew_threshold_ps = 60.0;  ///< only sharpen pins slower than this
  std::string buffer_cell = "BUF_X2";
};

struct SizingReport {
  double initial_cp_ps = 0.0;
  double final_cp_ps = 0.0;
  int upsizes = 0;
  int downsizes = 0;
  int slew_buffers = 0;
};

/// Resizes instances of `module` in place.
SizingReport size_gates(netlist::Module& module, const liberty::Library& library,
                        const SizingOptions& options = {});

}  // namespace rw::synth
