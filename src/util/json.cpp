#include "util/json.hpp"

#include <cstdio>
#include <cstdlib>

namespace rw::util::json {

std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void Reader::ws() {
  while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\r' || s_[i_] == '\n')) {
    ++i_;
  }
}

bool Reader::consume(char c) {
  ws();
  if (i_ >= s_.size() || s_[i_] != c) return false;
  ++i_;
  return true;
}

bool Reader::fail(const std::string& what) {
  if (error_.empty()) error_ = what + " at offset " + std::to_string(i_);
  return false;
}

bool Reader::end() {
  ws();
  return i_ == s_.size() || fail("trailing bytes after the document");
}

bool Reader::enter(char open) {
  if (!consume(open)) return fail(std::string("expected '") + open + "'");
  if (++depth_ > kMaxDepth) {
    return fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
  }
  return true;
}

bool Reader::string(std::string& out) {
  if (!consume('"')) return false;
  out.clear();
  while (i_ < s_.size()) {
    // Copy the run up to the next quote or escape in one append.
    std::size_t end = i_;
    while (end < s_.size() && s_[end] != '"' && s_[end] != '\\') ++end;
    out.append(s_, i_, end - i_);
    i_ = end;
    if (i_ >= s_.size()) break;
    if (s_[i_++] == '"') return true;
    if (i_ >= s_.size()) return false;
    const char esc = s_[i_++];
    switch (esc) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      case 'r': out.push_back('\r'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'u': {
        unsigned code = 0;
        for (int k = 0; k < 4; ++k, ++i_) {
          const char h = i_ < s_.size() ? s_[i_] : '\0';
          const char lower = static_cast<char>(h | 0x20);
          if (h >= '0' && h <= '9') {
            code = code * 16 + static_cast<unsigned>(h - '0');
          } else if (lower >= 'a' && lower <= 'f') {
            code = code * 16 + static_cast<unsigned>(lower - 'a' + 10);
          } else {
            return false;
          }
        }
        // Writers only escape control bytes (\u00XX); anything wider is
        // UTF-8 encoded (a lone surrogate passes through as three bytes).
        if (code < 0x80) {
          out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out.push_back(static_cast<char>(0xC0 | (code >> 6)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out.push_back(static_cast<char>(0xE0 | (code >> 12)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default: return false;
    }
  }
  return false;  // unterminated
}

bool Reader::number(double& out) {
  ws();
  const char* start = s_.c_str() + i_;
  char* end = nullptr;
  out = std::strtod(start, &end);
  if (end == start) return false;
  i_ += static_cast<std::size_t>(end - start);
  return true;
}

bool Reader::digits(std::uint64_t& out) {
  ws();
  const std::size_t start = i_;
  std::uint64_t v = 0;
  for (; i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9'; ++i_) {
    const auto d = static_cast<std::uint64_t>(s_[i_] - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - d) / 10) return false;
    v = v * 10 + d;
  }
  if (i_ == start) return false;
  if (i_ < s_.size() && (s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E')) return false;
  out = v;
  return true;
}

bool Reader::boolean(bool& out) {
  ws();
  if (s_.compare(i_, 4, "true") == 0) {
    out = true;
    i_ += 4;
    return true;
  }
  if (s_.compare(i_, 5, "false") == 0) {
    out = false;
    i_ += 5;
    return true;
  }
  return false;
}

bool Reader::skip() {
  ws();
  const char c = i_ < s_.size() ? s_[i_] : '\0';
  if (c == '"') {
    std::string ignored;
    return string(ignored);
  }
  if (c == '{') return object([](Reader& r, std::string_view) { return r.skip(); });
  if (c == '[') return array([](Reader& r) { return r.skip(); });
  if (s_.compare(i_, 4, "null") == 0) {
    i_ += 4;
    return true;
  }
  bool b = false;
  double d = 0.0;
  return boolean(b) || number(d);
}

}  // namespace rw::util::json
