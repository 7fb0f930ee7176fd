#include "flow/artifact.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "netlist/verilog.hpp"
#include "util/number.hpp"

namespace rw::flow::artifact {

namespace {

/// Exact double -> text: C99 hexfloat round-trips IEEE-754 bit patterns.
std::string hex(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Whitespace-token reader over an artifact; any shortfall or type mismatch
/// throws (the orchestrator recomputes the stage on a corrupt checkpoint).
class TokenReader {
 public:
  explicit TokenReader(const std::string& text) : in_(text) {}

  std::string word(const char* what) {
    std::string t;
    if (!(in_ >> t)) throw std::runtime_error(std::string("artifact: missing ") + what);
    return t;
  }

  void expect(const char* tag) {
    if (word(tag) != tag) {
      throw std::runtime_error(std::string("artifact: expected tag '") + tag + "'");
    }
  }

  /// Exactly what `hex()` writes: an optional '-', then "0x" and hex
  /// digits, or "inf" / "nan".
  double number(const char* what) {
    const std::string t = word(what);
    std::string_view digits = t;
    const bool negative = digits.starts_with('-');
    if (negative) digits.remove_prefix(1);
    if (digits.starts_with("0x")) {
      // from_chars takes the digits without "0x"; after it, a sign or
      // "inf"/"nan" would pass too.
      digits.remove_prefix(2);
      if (digits.empty() || std::isxdigit(static_cast<unsigned char>(digits.front())) == 0) {
        digits = "";
      }
    } else if (digits != "inf" && digits != "nan") {
      digits = "";
    }
    double v = 0.0;
    const char* end = digits.data() + digits.size();
    const auto [stop, ec] = std::from_chars(digits.data(), end, v, std::chars_format::hex);
    if (ec != std::errc{} || stop != end) {
      throw std::runtime_error(std::string("artifact: bad number for ") + what);
    }
    return negative ? -v : v;
  }

  template <typename Int = long long>
  Int integer(const char* what) {
    Int v = 0;
    if (!util::parse_number(word(what), v)) {
      throw std::runtime_error(std::string("artifact: bad integer for ") + what);
    }
    return v;
  }

  /// Reads a raw byte blob: consumes the single newline that terminates the
  /// preceding token line, then exactly `bytes` characters.
  std::string blob(std::size_t bytes) {
    if (in_.get() != '\n') throw std::runtime_error("artifact: blob must start after newline");
    std::string out(bytes, '\0');
    in_.read(out.data(), static_cast<std::streamsize>(bytes));
    if (static_cast<std::size_t>(in_.gcount()) != bytes) {
      throw std::runtime_error("artifact: truncated blob");
    }
    return out;
  }

 private:
  std::istringstream in_;
};

void encode_table2d(std::string& out, const util::Table2D& t) {
  out += "dims " + std::to_string(t.x_axis().size()) + " " + std::to_string(t.y_axis().size());
  for (const double v : t.x_axis().points()) out += " " + hex(v);
  for (const double v : t.y_axis().points()) out += " " + hex(v);
  for (const double v : t.values()) out += " " + hex(v);
  out += "\n";
}

util::Table2D decode_table2d(TokenReader& r) {
  r.expect("dims");
  const auto nx = static_cast<std::size_t>(r.integer("nx"));
  const auto ny = static_cast<std::size_t>(r.integer("ny"));
  std::vector<double> xs(nx);
  std::vector<double> ys(ny);
  std::vector<double> values(nx * ny);
  for (auto& v : xs) v = r.number("x point");
  for (auto& v : ys) v = r.number("y point");
  for (auto& v : values) v = r.number("table value");
  return util::Table2D(util::Axis(std::move(xs)), util::Axis(std::move(ys)), std::move(values));
}

void encode_timing_table(std::string& out, const liberty::TimingTable& t) {
  out += "table " + std::string(t.empty() ? "0" : "1") + "\n";
  if (!t.empty()) {
    encode_table2d(out, t.delay_ps);
    encode_table2d(out, t.out_slew_ps);
  }
}

liberty::TimingTable decode_timing_table(TokenReader& r) {
  r.expect("table");
  liberty::TimingTable t;
  if (r.integer("table presence") != 0) {
    t.delay_ps = decode_table2d(r);
    t.out_slew_ps = decode_table2d(r);
  }
  return t;
}

}  // namespace

std::string encode_doubles(const std::vector<double>& values) {
  std::string out = "rwvec1 " + std::to_string(values.size()) + "\n";
  for (const double v : values) out += hex(v) + "\n";
  return out;
}

std::vector<double> decode_doubles(const std::string& text) {
  TokenReader r(text);
  r.expect("rwvec1");
  std::vector<double> values(static_cast<std::size_t>(r.integer("count")));
  for (auto& v : values) v = r.number("value");
  return values;
}

std::string encode_duties(const std::vector<netlist::InstanceDuty>& duties) {
  std::string out = "rwduty1 " + std::to_string(duties.size()) + "\n";
  for (const auto& d : duties) out += hex(d.lambda_p) + " " + hex(d.lambda_n) + "\n";
  return out;
}

std::vector<netlist::InstanceDuty> decode_duties(const std::string& text) {
  TokenReader r(text);
  r.expect("rwduty1");
  std::vector<netlist::InstanceDuty> duties(static_cast<std::size_t>(r.integer("count")));
  for (auto& d : duties) {
    d.lambda_p = r.number("lambda_p");
    d.lambda_n = r.number("lambda_n");
  }
  return duties;
}

std::string encode_library(const liberty::Library& library) {
  std::string out = "rwlib1 " + library.name() + "\ncells " +
                    std::to_string(library.cells().size()) + "\n";
  for (const liberty::Cell& cell : library.cells()) {
    out += "cell " + cell.name + " " + cell.family + " " + std::to_string(cell.drive_x) + " " +
           (cell.is_flop ? "1" : "0") + " " + std::to_string(cell.truth) + " " + cell.output_pin +
           "\n";
    out += "metrics " + hex(cell.area_um2) + " " + hex(cell.setup_ps) + " " + hex(cell.hold_ps) +
           "\n";
    out += "pins " + std::to_string(cell.pins.size()) + "\n";
    for (const liberty::Pin& pin : cell.pins) {
      out += "pin " + pin.name + " " + (pin.is_input ? "1" : "0") + " " +
             (pin.is_clock ? "1" : "0") + " " + hex(pin.cap_ff) + "\n";
    }
    out += "arcs " + std::to_string(cell.arcs.size()) + "\n";
    for (const liberty::TimingArc& arc : cell.arcs) {
      out += "arc " + arc.related_pin + " " + liberty::to_string(arc.sense) + " " +
             (arc.clocked ? "1" : "0") + "\n";
      encode_timing_table(out, arc.rise);
      encode_timing_table(out, arc.fall);
    }
    out += "fallbacks " + std::to_string(cell.fallbacks.size()) + "\n";
    for (const liberty::FallbackPoint& fb : cell.fallbacks) {
      out += "fb " + fb.related_pin + " " + (fb.rising ? "1" : "0") + " " +
             std::to_string(fb.slew_index) + " " + std::to_string(fb.load_index) + "\n";
    }
  }
  return out;
}

liberty::Library decode_library(const std::string& text) {
  TokenReader r(text);
  r.expect("rwlib1");
  liberty::Library library(r.word("library name"));
  r.expect("cells");
  const auto n_cells = static_cast<std::size_t>(r.integer("cell count"));
  for (std::size_t c = 0; c < n_cells; ++c) {
    r.expect("cell");
    liberty::Cell cell;
    cell.name = r.word("cell name");
    cell.family = r.word("cell family");
    cell.drive_x = static_cast<int>(r.integer("drive"));
    cell.is_flop = r.integer("is_flop") != 0;
    cell.truth = r.integer<std::uint64_t>("truth");
    cell.output_pin = r.word("output pin");
    r.expect("metrics");
    cell.area_um2 = r.number("area");
    cell.setup_ps = r.number("setup");
    cell.hold_ps = r.number("hold");
    r.expect("pins");
    const auto n_pins = static_cast<std::size_t>(r.integer("pin count"));
    for (std::size_t p = 0; p < n_pins; ++p) {
      r.expect("pin");
      liberty::Pin pin;
      pin.name = r.word("pin name");
      pin.is_input = r.integer("is_input") != 0;
      pin.is_clock = r.integer("is_clock") != 0;
      pin.cap_ff = r.number("cap");
      cell.pins.push_back(std::move(pin));
    }
    r.expect("arcs");
    const auto n_arcs = static_cast<std::size_t>(r.integer("arc count"));
    for (std::size_t a = 0; a < n_arcs; ++a) {
      r.expect("arc");
      liberty::TimingArc arc;
      arc.related_pin = r.word("related pin");
      arc.sense = liberty::sense_from_string(r.word("sense"));
      arc.clocked = r.integer("clocked") != 0;
      arc.rise = decode_timing_table(r);
      arc.fall = decode_timing_table(r);
      cell.arcs.push_back(std::move(arc));
    }
    r.expect("fallbacks");
    const auto n_fb = static_cast<std::size_t>(r.integer("fallback count"));
    for (std::size_t f = 0; f < n_fb; ++f) {
      r.expect("fb");
      liberty::FallbackPoint fb;
      fb.related_pin = r.word("fallback pin");
      fb.rising = r.integer("fallback rising") != 0;
      fb.slew_index = static_cast<int>(r.integer("fallback slew"));
      fb.load_index = static_cast<int>(r.integer("fallback load"));
      cell.fallbacks.push_back(std::move(fb));
    }
    library.add_cell(std::move(cell));
  }
  return library;
}

std::string encode_synthesis(const synth::SynthesisResult& result,
                             const liberty::Library& library) {
  const std::string verilog = netlist::write_verilog(result.module, library);
  std::string out = "rwsynth1\nverilog " + std::to_string(verilog.size()) + "\n" + verilog;
  out += "\nmetrics " + hex(result.cp_ps) + " " + hex(result.area_um2) + " " +
         std::to_string(result.gate_count) + "\n";
  out += "sizing " + hex(result.sizing.initial_cp_ps) + " " + hex(result.sizing.final_cp_ps) +
         " " + std::to_string(result.sizing.upsizes) + " " +
         std::to_string(result.sizing.downsizes) + " " +
         std::to_string(result.sizing.slew_buffers) + "\n";
  return out;
}

synth::SynthesisResult decode_synthesis(const std::string& text,
                                        const liberty::Library& library) {
  TokenReader r(text);
  r.expect("rwsynth1");
  r.expect("verilog");
  const auto bytes = static_cast<std::size_t>(r.integer("verilog bytes"));
  const std::string verilog = r.blob(bytes);
  synth::SynthesisResult result{netlist::parse_verilog(verilog, library), 0.0, 0.0, 0, {}};
  r.expect("metrics");
  result.cp_ps = r.number("cp");
  result.area_um2 = r.number("area");
  result.gate_count = static_cast<std::size_t>(r.integer("gate count"));
  r.expect("sizing");
  result.sizing.initial_cp_ps = r.number("sizing initial");
  result.sizing.final_cp_ps = r.number("sizing final");
  result.sizing.upsizes = static_cast<int>(r.integer("upsizes"));
  result.sizing.downsizes = static_cast<int>(r.integer("downsizes"));
  result.sizing.slew_buffers = static_cast<int>(r.integer("slew buffers"));
  return result;
}

}  // namespace rw::flow::artifact
