#pragma once

/// \file json.hpp
/// The one JSON reader. Every document the toolchain reads back — the
/// characterization `manifest.json`, the flow `flow_manifest.json`, the
/// rwserved wire frames, spool records and run reports — goes through
/// `Reader`, so they share one grammar and one policy:
///
///  * No exceptions: a torn or malformed document is a false return with a
///    positioned error. On a socket or after a crash, garbage is an expected
///    input.
///  * Unknown keys of any type are skipped (forward compatibility).
///  * Nesting is bounded by `kMaxDepth`, so a hostile document cannot
///    exhaust the stack.
///  * Numbers: `format_double` writes `%.17g`, which round-trips every
///    double bit-exactly (including the `nan`/`inf` it prints), and
///    `number` reads with `strtod`. Counts and offsets use `integer`, which
///    accepts only an exact non-negative integer that fits its type.
///
/// Writers build their text directly (with `util::append_json_string` and
/// `format_double`), so this header holds no document model.

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/atomic_file.hpp"

namespace rw::util::json {

/// Deepest object/array nesting a reader accepts. Every writer emits at
/// most 3 levels; this bound only stops runaway recursion.
inline constexpr int kMaxDepth = 64;

/// %.17g — doubles survive a write/read round trip bit-exactly.
std::string format_double(double value);

/// Cursor over one document. `text` must outlive the reader (numbers are
/// read in place with strtod, which needs the terminating NUL).
class Reader {
 public:
  explicit Reader(const std::string& text) : s_(text) {}

  bool string(std::string& out);
  bool number(double& out);
  bool boolean(bool& out);
  /// Exact non-negative integer: digits only, no sign, fraction or
  /// exponent, and no overflow of `Int`.
  template <typename Int>
  bool integer(Int& out) {
    static_assert(std::is_integral_v<Int>);
    std::uint64_t v = 0;
    if (!digits(v) || v > static_cast<std::uint64_t>(std::numeric_limits<Int>::max())) {
      return false;
    }
    out = static_cast<Int>(v);
    return true;
  }
  /// Skips any value (for unknown keys), within the nesting bound.
  bool skip();

  /// Reads an object, calling `member(reader, key)` for each member; the
  /// callback reads the value (or `skip()`s it) and returns false when it
  /// is malformed.
  template <typename Member>
  bool object(Member&& member) {
    if (!enter('{')) return false;
    if (consume('}')) return leave();
    std::string key;
    for (;;) {
      if (!string(key)) return fail("expected key string");
      if (!consume(':')) return fail("expected ':'");
      if (!member(*this, std::string_view(key))) return fail("bad value for \"" + key + "\"");
      if (consume('}')) return leave();
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  /// Reads an array, calling `element(reader)` for each element.
  template <typename Element>
  bool array(Element&& element) {
    if (!enter('[')) return false;
    if (consume(']')) return leave();
    for (;;) {
      if (!element(*this)) return fail("bad array element");
      if (consume(']')) return leave();
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  /// True when nothing but whitespace is left after the document.
  bool end();

  /// The first failure, with its offset ("" while none).
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  void ws();
  bool consume(char c);
  bool digits(std::uint64_t& out);
  bool enter(char open);
  bool leave() {
    --depth_;
    return true;
  }
  /// Records `what` unless an inner failure already did; returns false.
  bool fail(const std::string& what);

  const std::string& s_;
  std::size_t i_ = 0;
  int depth_ = 0;
  std::string error_;
};

/// Parses `text` as one object (see `Reader::object`) and nothing after it
/// but whitespace; false with `error` set on malformed input.
template <typename Member>
bool parse_object(const std::string& text, std::string& error, Member&& member) {
  Reader reader(text);
  if (reader.object(member) && reader.end()) return true;
  error = reader.error();
  return false;
}

/// `parse_object` over the whole file at `path`.
template <typename Member>
bool parse_object_file(const std::string& path, std::string& error, Member&& member) {
  std::string text;
  if (!read_file(path, text)) {
    error = "cannot read " + path;
    return false;
  }
  return parse_object(text, error, member);
}

}  // namespace rw::util::json
