#include "flow/aging_aware_synthesis.hpp"

#include <stdexcept>
#include <vector>

#include "flow/artifact.hpp"
#include "flow/preamble.hpp"
#include "sta/analysis.hpp"

namespace rw::flow {

ContainmentResult run_containment(const synth::Ir& ir, const liberty::Library& fresh,
                                  const liberty::Library& aged, const std::string& top_name,
                                  const synth::SynthesisOptions& options,
                                  const OrchestratorOptions* orch) {
  FlowOrchestrator run("run_containment", resolve_options(orch));
  // Pre-flight the caller-provided libraries: negative/missing NLDM data or
  // an aged cell faster than fresh silently corrupts both syntheses, so fail
  // fast with the diagnostics instead.
  preflight_library(fresh);
  preflight_library(aged, &fresh);
  ContainmentResult r{
      run.stage(
          "synth_conventional", [&] { return synth::synthesize(ir, fresh, top_name, options); },
          [&](const synth::SynthesisResult& s) { return artifact::encode_synthesis(s, fresh); },
          [&](const std::string& text) { return artifact::decode_synthesis(text, fresh); }),
      run.stage(
          "synth_aware", [&] { return synth::synthesize(ir, aged, top_name + "_aw", options); },
          [&](const synth::SynthesisResult& s) { return artifact::encode_synthesis(s, aged); },
          [&](const std::string& text) { return artifact::decode_synthesis(text, aged); })};

  const sta::StaOptions sta_opts = options.sizing.sta;
  const std::vector<double> metrics = run.stage(
      "sta",
      [&] {
        // Areas against the fresh library (identical cell areas in both
        // corners).
        return std::vector<double>{
            sta::Sta(r.conventional.module, fresh, sta_opts).critical_delay_ps(),
            sta::Sta(r.conventional.module, aged, sta_opts).critical_delay_ps(),
            sta::Sta(r.aging_aware.module, fresh, sta_opts).critical_delay_ps(),
            sta::Sta(r.aging_aware.module, aged, sta_opts).critical_delay_ps(),
            synth::total_area_um2(r.conventional.module, fresh),
            synth::total_area_um2(r.aging_aware.module, fresh)};
      },
      [](const std::vector<double>& v) { return artifact::encode_doubles(v); },
      [](const std::string& text) {
        std::vector<double> v = artifact::decode_doubles(text);
        if (v.size() != 6) throw std::runtime_error("containment sta artifact: expected 6 values");
        return v;
      });
  r.conventional_fresh_cp_ps = metrics[0];
  r.conventional_aged_cp_ps = metrics[1];
  r.aware_fresh_cp_ps = metrics[2];
  r.aware_aged_cp_ps = metrics[3];
  r.conventional.area_um2 = metrics[4];
  r.aging_aware.area_um2 = metrics[5];
  run.finish();
  return r;
}

}  // namespace rw::flow
