#include "netlist/verilog.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace rw::netlist {

namespace {

/// Net names may contain '$' from generated names; escape nothing, the
/// parser accepts the same character set the writer emits.
bool is_name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_' ||
         c == '$' || c == '.';
}

}  // namespace

std::string write_verilog(const Module& module, const liberty::Library& library) {
  std::ostringstream os;
  os << "module " << module.name() << " (";
  bool first = true;
  for (NetId n : module.inputs()) {
    os << (first ? "" : ", ") << "input " << module.net_name(n);
    first = false;
  }
  for (NetId n : module.outputs()) {
    os << (first ? "" : ", ") << "output " << module.net_name(n);
    first = false;
  }
  os << ");\n";

  for (NetId n = 0; n < module.net_count(); ++n) {
    if (!module.is_input(n)) os << "  wire " << module.net_name(n) << ";\n";
  }

  for (const auto& inst : module.instances()) {
    const liberty::Cell& cell = library.at(inst.cell);
    os << "  " << inst.cell << " " << inst.name << " (";
    const auto inputs = cell.input_pins();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      os << "." << inputs[i]->name << "(" << module.net_name(inst.fanin[i]) << "), ";
    }
    os << "." << cell.output_pin << "(" << module.net_name(inst.out) << "));\n";
  }
  os << "endmodule\n";
  return os.str();
}

void write_verilog_file(const Module& module, const liberty::Library& library,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_verilog_file: cannot open " + path);
  out << write_verilog(module, library);
}

namespace {

class VTokenizer {
 public:
  explicit VTokenizer(const std::string& text) : text_(text) {}

  std::string next() {
    skip();
    if (pos_ >= text_.size()) return {};
    const char c = text_[pos_];
    if (std::string("(),;").find(c) != std::string::npos) {
      ++pos_;
      return std::string(1, c);
    }
    std::string tok;
    while (pos_ < text_.size() && is_name_char(text_[pos_])) tok += text_[pos_++];
    if (tok.empty()) fail(std::string("unexpected character '") + c + "'");
    return tok;
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw std::runtime_error("verilog parse error at line " + std::to_string(line_) + ": " + msg);
  }

 private:
  void skip() {
    while (pos_ < text_.size()) {
      if (text_[pos_] == '\n') {
        ++line_;
        ++pos_;
      } else if (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r') {
        ++pos_;
      } else if (text_[pos_] == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

}  // namespace

namespace {

/// Output-pin guess for cells the library does not know (lenient mode only):
/// conventional output names first, else the last connection.
bool looks_like_output_pin(const std::string& pin) {
  return pin == "Z" || pin == "ZN" || pin == "Q" || pin == "QN" || pin == "Y" || pin == "OUT" ||
         pin == "O";
}

}  // namespace

Module parse_verilog(const std::string& text, const liberty::Library& library,
                     const ParseOptions& options) {
  VTokenizer tz(text);
  auto expect = [&](const std::string& want) {
    const std::string got = tz.next();
    if (got != want) tz.fail("expected '" + want + "', got '" + got + "'");
  };

  expect("module");
  Module module(tz.next());
  expect("(");
  std::string tok = tz.next();
  while (tok != ")") {
    if (tok == "input" || tok == "output") {
      const bool in = tok == "input";
      const std::string name = tz.next();
      NetId id = module.find_net(name);
      if (id == kNoNet) id = module.add_net(name);
      if (in) {
        module.mark_input(id);
      } else {
        module.mark_output(id);
      }
    } else if (tok != ",") {
      tz.fail("unexpected token in port list: " + tok);
    }
    tok = tz.next();
  }
  expect(";");

  tok = tz.next();
  while (!tok.empty() && tok != "endmodule") {
    if (tok == "wire") {
      std::string name = tz.next();
      while (true) {
        if (module.find_net(name) == kNoNet) module.add_net(name);
        const std::string sep = tz.next();
        if (sep == ";") break;
        if (sep != ",") tz.fail("expected ',' or ';' in wire declaration");
        name = tz.next();
      }
    } else {
      // Instance: <cell> <name> ( .PIN(net), ... );
      const std::string cell_name = tok;
      // A lenient parse accepts a λ-indexed name whose exact corner is
      // absent: the base cell still defines the pin layout.
      const liberty::Cell* cell =
          options.lenient
              ? liberty::resolve_cell(library, cell_name, liberty::IndexRange::kUnit).cell
              : library.find(cell_name);
      if (cell == nullptr && !options.lenient) tz.fail("unknown cell " + cell_name);
      const std::string inst_name = tz.next();
      expect("(");
      std::vector<std::pair<std::string, std::string>> conns;
      std::string t = tz.next();
      while (t != ")") {
        if (t == ",") {
          t = tz.next();
          continue;
        }
        if (t.empty() || t[0] != '.') tz.fail("expected .PIN(net) connection");
        const std::string pin = t.substr(1);
        expect("(");
        const std::string net = tz.next();
        expect(")");
        conns.emplace_back(pin, net);
        t = tz.next();
      }
      expect(";");

      const auto resolve = [&](const std::string& net_name) {
        NetId id = module.find_net(net_name);
        if (id == kNoNet) id = module.add_net(net_name);
        return id;
      };
      std::vector<NetId> fanin;
      NetId out = kNoNet;
      if (cell != nullptr) {
        const auto input_pins = cell->input_pins();
        for (const auto* pin : input_pins) {
          bool found = false;
          for (const auto& [p, n] : conns) {
            if (p == pin->name) {
              fanin.push_back(resolve(n));
              found = true;
              break;
            }
          }
          if (!found && !options.lenient) {
            tz.fail("instance " + inst_name + ": missing connection for pin " + pin->name);
          }
        }
        for (const auto& [p, n] : conns) {
          if (p == cell->output_pin) out = resolve(n);
        }
        if (out == kNoNet && !options.lenient) {
          tz.fail("instance " + inst_name + ": missing output connection " + cell->output_pin);
        }
      } else {
        // Unknown cell in lenient mode: guess the output connection, treat
        // everything else as fanin, and let the cell-reference rule report it.
        std::size_t out_conn = conns.size();
        for (std::size_t c = 0; c < conns.size(); ++c) {
          if (looks_like_output_pin(conns[c].first)) out_conn = c;
        }
        if (out_conn == conns.size() && !conns.empty()) out_conn = conns.size() - 1;
        for (std::size_t c = 0; c < conns.size(); ++c) {
          if (c == out_conn) {
            out = resolve(conns[c].second);
          } else {
            fanin.push_back(resolve(conns[c].second));
          }
        }
      }
      if (options.lenient) {
        module.add_instance_lenient(inst_name, cell_name, std::move(fanin), out);
      } else {
        module.add_instance(inst_name, cell_name, std::move(fanin), out);
      }
    }
    tok = tz.next();
  }
  if (tok != "endmodule") tz.fail("missing endmodule");

  // Recover the clock: the net wired to any flop's clock pin.
  for (const auto& inst : module.instances()) {
    const liberty::Cell* cell = library.find(inst.cell);
    if (cell == nullptr || !cell->is_flop) continue;
    const auto input_pins = cell->input_pins();
    for (std::size_t i = 0; i < input_pins.size() && i < inst.fanin.size(); ++i) {
      if (input_pins[i]->is_clock) {
        module.set_clock(inst.fanin[i]);
        break;
      }
    }
    if (module.clock() != kNoNet) break;
  }
  return module;
}

Module parse_verilog_file(const std::string& path, const liberty::Library& library,
                          const ParseOptions& options) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("parse_verilog_file: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_verilog(ss.str(), library, options);
}

}  // namespace rw::netlist
