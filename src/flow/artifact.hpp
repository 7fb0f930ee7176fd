#pragma once

/// \file artifact.hpp
/// Lossless stage-artifact codecs for the flow orchestrator. Liberty text is
/// the wrong checkpoint format — its writer rounds to 4 decimals — so stage
/// outputs are serialized with C99 hexfloats (`%a`, parsed back by
/// `std::from_chars`), which round-trip IEEE-754 doubles exactly. That
/// exactness is what makes `kill -9` + RW_FLOW_RESUME=1 bitwise-identical to
/// an uninterrupted run: the orchestrator feeds every downstream stage the
/// *decoded* artifact even when the stage was just computed, so both runs
/// consume identical bytes.
///
/// The format is line-oriented tagged text (stable, diffable, versioned by
/// a leading magic token per codec). Decoders throw std::runtime_error on
/// any mismatch; the orchestrator treats that as a stale checkpoint and
/// recomputes the stage.

#include <string>
#include <vector>

#include "liberty/library.hpp"
#include "netlist/annotate.hpp"
#include "synth/synthesizer.hpp"

namespace rw::flow::artifact {

/// Exact (hexfloat) double <-> text helpers shared by the codecs and tests.
std::string encode_doubles(const std::vector<double>& values);
std::vector<double> decode_doubles(const std::string& text);

std::string encode_duties(const std::vector<netlist::InstanceDuty>& duties);
std::vector<netlist::InstanceDuty> decode_duties(const std::string& text);

/// Full-fidelity library codec: every Cell field including pins, truth
/// table, NLDM axes/values, and fallback points.
std::string encode_library(const liberty::Library& library);
liberty::Library decode_library(const std::string& text);

/// Synthesis result: structural Verilog (via the library-driven writer) plus
/// exact metrics. Decoding parses the netlist back against `library`.
std::string encode_synthesis(const synth::SynthesisResult& result,
                             const liberty::Library& library);
synth::SynthesisResult decode_synthesis(const std::string& text,
                                        const liberty::Library& library);

}  // namespace rw::flow::artifact
