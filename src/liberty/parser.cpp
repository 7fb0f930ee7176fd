#include "liberty/parser.hpp"

#include <charconv>
#include <cstdint>
#include <deque>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "util/number.hpp"

namespace rw::liberty {

namespace {

[[noreturn]] void fail_at(int line, const std::string& message) {
  throw std::runtime_error("liberty parse error at line " + std::to_string(line) + ": " +
                           message);
}

/// A piece of library text and the line it starts on. The view points into
/// the parsed text, or into the lexer's arena for the rare text that had to
/// be rebuilt (a string with line continuations, a multi-token value).
struct Text {
  std::string_view view;
  int line = 0;
};

/// Generic Liberty group tree: `name (args) { attr : value; subgroups... }`.
struct Group {
  std::string_view name;
  int line = 0;
  std::vector<std::string_view> args;
  std::vector<std::pair<std::string_view, Text>> attributes;
  /// Complex attributes: `name ("a", "b", ...);` — e.g. index_1 / values.
  std::vector<std::pair<std::string_view, std::vector<Text>>> complex_attrs;
  std::vector<Group> children;

  [[nodiscard]] const Text* attr(std::string_view key) const {
    for (const auto& [k, v] : attributes) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] const std::vector<Text>* complex_attr(std::string_view key) const {
    for (const auto& [k, v] : complex_attrs) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

constexpr bool is_punct_char(char c) {
  return c == '{' || c == '}' || c == '(' || c == ')' || c == ';' || c == ':' || c == ',';
}

constexpr bool ends_ident(char c) {
  return is_punct_char(c) || c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '"';
}

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  struct Token {
    enum class Kind { kIdent, kString, kPunct, kEnd } kind = Kind::kEnd;
    std::string_view value;
    int line = 0;
  };

  Token next() {
    skip_ws_and_comments();
    Token t;
    t.line = line_;
    if (pos_ >= text_.size()) return t;
    const char c = text_[pos_];
    const std::size_t begin = pos_;
    if (c == '"') {
      ++pos_;
      bool spliced = false;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        if (text_[pos_] == '\\' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '\n') {
          pos_ += 2;  // line continuation inside a string
          ++line_;
          spliced = true;
          continue;
        }
        if (text_[pos_] == '\n') ++line_;
        ++pos_;
      }
      if (pos_ >= text_.size()) fail("unterminated string");
      const std::string_view raw = text_.substr(begin + 1, pos_ - begin - 1);
      ++pos_;
      t.kind = Token::Kind::kString;
      t.value = spliced ? splice(raw) : raw;
      return t;
    }
    if (is_punct_char(c)) {
      ++pos_;
      t.kind = Token::Kind::kPunct;
      t.value = text_.substr(begin, 1);
      return t;
    }
    while (pos_ < text_.size() && !ends_ident(text_[pos_])) ++pos_;
    if (pos_ == begin) fail("unexpected character");
    t.kind = Token::Kind::kIdent;
    t.value = text_.substr(begin, pos_ - begin);
    return t;
  }

  [[noreturn]] void fail(const std::string& message) const { fail_at(line_, message); }

  /// A new string that lives as long as the lexer, for text that is not a
  /// slice of the input.
  std::string& new_text() { return arena_.emplace_back(); }

 private:
  void skip_ws_and_comments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (c == ' ' || c == '\t' || c == '\r') {
        ++pos_;
      } else if (c == '\\' && pos_ + 1 < text_.size() &&
                 (text_[pos_ + 1] == '\n' || text_[pos_ + 1] == '\r')) {
        pos_ += 2;  // line continuation
        ++line_;
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < text_.size() && !(text_[pos_] == '*' && text_[pos_ + 1] == '/')) {
          if (text_[pos_] == '\n') ++line_;
          ++pos_;
        }
        if (pos_ + 1 >= text_.size()) fail("unterminated comment");
        pos_ += 2;
      } else {
        break;
      }
    }
  }

  /// `raw` without its backslash-newline continuations.
  std::string_view splice(std::string_view raw) {
    std::string& s = new_text();
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] == '\\' && i + 1 < raw.size() && raw[i + 1] == '\n') {
        ++i;
      } else {
        s += raw[i];
      }
    }
    return s;
  }

  std::string_view text_;
  std::deque<std::string> arena_;  ///< a deque: growing it moves no string
  std::size_t pos_ = 0;
  int line_ = 1;
};

class Parser {
 public:
  explicit Parser(std::string_view text) : lexer_(text) { advance(); }

  Group parse_group() {
    expect_ident();
    Group g;
    g.name = token_.value;
    g.line = token_.line;
    advance();
    expect_punct('(');
    advance();
    while (!is_punct(')')) {
      if (token_.kind == Lexer::Token::Kind::kIdent ||
          token_.kind == Lexer::Token::Kind::kString) {
        g.args.push_back(token_.value);
        advance();
      } else if (is_punct(',')) {
        advance();
      } else {
        lexer_.fail("unexpected token in group arguments");
      }
    }
    advance();  // ')'
    if (is_punct(';')) {
      advance();  // statement group without body (complex attribute at top)
      return g;
    }
    expect_punct('{');
    advance();
    while (!is_punct('}')) {
      parse_statement(g);
    }
    advance();  // '}'
    return g;
  }

 private:
  void parse_statement(Group& parent) {
    expect_ident();
    const std::string_view name = token_.value;
    const int line = token_.line;
    advance();
    if (is_punct(':')) {
      advance();
      // Value may span identifiers/strings until ';'; joined by one space.
      Text value{{}, line};
      std::string* joined = nullptr;
      while (!is_punct(';')) {
        if (token_.kind == Lexer::Token::Kind::kEnd) lexer_.fail("missing ';' after attribute");
        if (value.view.empty()) {
          value.view = token_.value;
        } else {
          if (joined == nullptr) joined = &lexer_.new_text().assign(value.view);
          *joined += ' ';
          *joined += token_.value;
          value.view = *joined;
        }
        advance();
      }
      advance();  // ';'
      parent.attributes.emplace_back(name, value);
      return;
    }
    if (is_punct('(')) {
      // Either a complex attribute `name (...);` or a subgroup `name (...) { }`.
      advance();
      std::vector<Text> args;
      while (!is_punct(')')) {
        if (token_.kind == Lexer::Token::Kind::kIdent ||
            token_.kind == Lexer::Token::Kind::kString) {
          args.push_back(Text{token_.value, token_.line});
          advance();
        } else if (is_punct(',')) {
          advance();
        } else {
          lexer_.fail("unexpected token in attribute arguments");
        }
      }
      advance();  // ')'
      if (is_punct(';')) {
        advance();
        parent.complex_attrs.emplace_back(name, std::move(args));
        return;
      }
      expect_punct('{');
      advance();
      Group child;
      child.name = name;
      child.line = line;
      child.args.reserve(args.size());
      for (const Text& a : args) child.args.push_back(a.view);
      while (!is_punct('}')) parse_statement(child);
      advance();
      parent.children.push_back(std::move(child));
      return;
    }
    lexer_.fail("expected ':' or '(' after identifier '" + std::string(name) + "'");
  }

  void advance() { token_ = lexer_.next(); }
  [[nodiscard]] bool is_punct(char p) const {
    return token_.kind == Lexer::Token::Kind::kPunct && token_.value.front() == p;
  }
  void expect_punct(char p) {
    if (!is_punct(p)) lexer_.fail(std::string("expected '") + p + "'");
  }
  void expect_ident() {
    if (token_.kind != Lexer::Token::Kind::kIdent) lexer_.fail("expected identifier");
  }

  Lexer lexer_;
  Lexer::Token token_;
};

/// `text` as one whole finite number (`util::parse_number`), else a
/// line-numbered parse error naming `what`.
template <typename T>
T number(std::string_view text, int line, std::string_view what) {
  T v{};
  if (!util::parse_number(text, v)) {
    fail_at(line, "malformed " + std::string(what) + " '" + std::string(text) + "'");
  }
  return v;
}

/// Comma/space-separated NLDM numbers of every argument. Each entry must be
/// one whole number, but NaN and infinities are read as such: they are a
/// finding of the library rules (LB001), not a syntax error.
std::vector<double> parse_number_list(const std::vector<Text>& args, std::string_view key) {
  const auto is_separator = [](char c) {
    return c == ',' || c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  std::vector<double> out;
  for (const Text& arg : args) {
    const char* first = arg.view.data();
    const char* const end = first + arg.view.size();
    while (true) {
      while (first != end && is_separator(*first)) ++first;
      if (first == end) break;
      const char* last = first;
      while (last != end && !is_separator(*last)) ++last;
      double v = 0.0;
      const auto [stop, ec] = std::from_chars(first, last, v);
      if (ec != std::errc{} || stop != last) {
        fail_at(arg.line,
                "malformed " + std::string(key) + " entry '" + std::string(first, last) + "'");
      }
      out.push_back(v);
      first = last;
    }
  }
  return out;
}

util::Table2D parse_table(const Group& g) {
  const auto* idx1 = g.complex_attr("index_1");
  const auto* idx2 = g.complex_attr("index_2");
  const auto* values = g.complex_attr("values");
  if (idx1 == nullptr || idx2 == nullptr || values == nullptr) {
    fail_at(g.line, "table group '" + std::string(g.name) + "' missing index_1/index_2/values");
  }
  return util::Table2D(util::Axis(parse_number_list(*idx1, "index_1")),
                       util::Axis(parse_number_list(*idx2, "index_2")),
                       parse_number_list(*values, "values"));
}

TimingArc parse_arc(const Group& g) {
  TimingArc arc;
  if (const auto* rp = g.attr("related_pin")) arc.related_pin = rp->view;
  if (const auto* sense = g.attr("timing_sense")) {
    arc.sense = sense_from_string(std::string(sense->view));
  }
  if (const auto* tt = g.attr("timing_type")) arc.clocked = (tt->view == "rising_edge");
  for (const auto& child : g.children) {
    if (child.name == "cell_rise") arc.rise.delay_ps = parse_table(child);
    if (child.name == "rise_transition") arc.rise.out_slew_ps = parse_table(child);
    if (child.name == "cell_fall") arc.fall.delay_ps = parse_table(child);
    if (child.name == "fall_transition") arc.fall.out_slew_ps = parse_table(child);
  }
  return arc;
}

/// Splits `entry` at every ':' into exactly `N` fields (empty ones kept);
/// false on any other count.
template <std::size_t N>
bool split_fields(std::string_view entry, std::string_view (&fields)[N]) {
  for (std::size_t n = 0; n < N; ++n) {
    const std::size_t colon = entry.find(':');
    fields[n] = entry.substr(0, colon);
    if (colon == std::string_view::npos) return n + 1 == N;
    entry.remove_prefix(colon + 1);
  }
  return false;
}

Cell parse_cell(const Group& g) {
  Cell cell;
  if (g.args.empty()) fail_at(g.line, "cell without a name");
  cell.name = g.args.front();
  if (const auto* a = g.attr("area")) cell.area_um2 = number<double>(a->view, a->line, "area");
  if (const auto* f = g.attr("rw_family")) cell.family = f->view;
  if (const auto* d = g.attr("rw_drive")) cell.drive_x = number<int>(d->view, d->line, "rw_drive");
  if (const auto* fl = g.attr("rw_is_flop")) cell.is_flop = (fl->view == "true");
  if (const auto* s = g.attr("rw_setup")) {
    cell.setup_ps = number<double>(s->view, s->line, "rw_setup");
  }
  if (const auto* h = g.attr("rw_hold")) cell.hold_ps = number<double>(h->view, h->line, "rw_hold");
  if (const auto* t = g.attr("rw_truth")) {
    cell.truth = number<std::uint64_t>(t->view, t->line, "rw_truth");
  }
  if (const auto* fb = g.complex_attr("rw_fallback")) {
    for (const Text& entry : *fb) {
      std::string_view parts[4];
      if (!split_fields(entry.view, parts) || (parts[1] != "rise" && parts[1] != "fall")) {
        fail_at(entry.line, "malformed rw_fallback entry '" + std::string(entry.view) +
                                "' in cell " + cell.name);
      }
      FallbackPoint f;
      f.related_pin = parts[0];
      f.rising = (parts[1] == "rise");
      f.slew_index = number<int>(parts[2], entry.line, "rw_fallback slew index");
      f.load_index = number<int>(parts[3], entry.line, "rw_fallback load index");
      cell.fallbacks.push_back(std::move(f));
    }
  }
  if (const auto* ip = g.complex_attr("rw_interp")) {
    if (ip->size() != 1) fail_at(g.line, "rw_interp takes one entry in cell " + cell.name);
    const Text& entry = ip->front();
    std::string_view parts[5];
    if (!split_fields(entry.view, parts)) {
      fail_at(entry.line, "malformed rw_interp entry '" + std::string(entry.view) +
                              "' in cell " + cell.name);
    }
    InterpMarker m;
    m.lambda_p_lo = number<double>(parts[0], entry.line, "rw_interp field");
    m.lambda_p_hi = number<double>(parts[1], entry.line, "rw_interp field");
    m.lambda_n_lo = number<double>(parts[2], entry.line, "rw_interp field");
    m.lambda_n_hi = number<double>(parts[3], entry.line, "rw_interp field");
    m.bound_ps = number<double>(parts[4], entry.line, "rw_interp field");
    cell.interp = m;
  }
  for (const auto& child : g.children) {
    if (child.name != "pin") continue;
    Pin pin;
    if (!child.args.empty()) pin.name = child.args.front();
    if (const auto* dir = child.attr("direction")) pin.is_input = (dir->view == "input");
    if (const auto* cap = child.attr("capacitance")) {
      pin.cap_ff = number<double>(cap->view, cap->line, "capacitance");
    }
    if (const auto* ck = child.attr("clock")) pin.is_clock = (ck->view == "true");
    if (!pin.is_input) {
      cell.output_pin = pin.name;
      for (const auto& arc_group : child.children) {
        if (arc_group.name == "timing") cell.arcs.push_back(parse_arc(arc_group));
      }
    }
    cell.pins.push_back(std::move(pin));
  }
  return cell;
}

}  // namespace

Library parse_library(const std::string& text) {
  Parser parser(text);
  const Group root = parser.parse_group();
  if (root.name != "library") fail_at(root.line, "expected top-level 'library' group");
  Library lib(root.args.empty() ? "unnamed" : std::string(root.args.front()));
  for (const auto& child : root.children) {
    if (child.name == "cell") lib.add_cell(parse_cell(child));
  }
  return lib;
}

Library parse_library_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("parse_library_file: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_library(ss.str());
}

}  // namespace rw::liberty
