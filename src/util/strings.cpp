#include "util/strings.hpp"

#include <cstdio>

#include "util/number.hpp"

namespace rw::util {

std::vector<std::string> split(std::string_view text, std::string_view delims) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find_first_of(delims, start);
    if (end == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    if (end > start) out.emplace_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string_view trim(std::string_view text) {
  const auto first = text.find_first_not_of(" \t\r\n");
  if (first == std::string_view::npos) return {};
  const auto last = text.find_last_not_of(" \t\r\n");
  return text.substr(first, last - first + 1);
}

std::string format_fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string format_lambda(double lambda) { return format_fixed(lambda, 2); }

std::string indexed_cell_name(std::string_view base, double lambda_p, double lambda_n) {
  std::string name{base};
  name += '_';
  name += format_lambda(lambda_p);
  name += '_';
  name += format_lambda(lambda_n);
  return name;
}

bool split_indexed_cell_name(std::string_view name, std::string& base, double& lambda_p,
                             double& lambda_n) {
  // Expect <base>_<num>_<num>; search from the end.
  const auto last = name.rfind('_');
  if (last == std::string_view::npos || last == 0) return false;
  const auto prev = name.rfind('_', last - 1);
  if (prev == std::string_view::npos || prev == 0) return false;
  double lp = 0.0;
  double ln = 0.0;
  if (!parse_number(name.substr(prev + 1, last - prev - 1), lp) ||
      !parse_number(name.substr(last + 1), ln)) {
    return false;
  }
  base = std::string{name.substr(0, prev)};
  lambda_p = lp;
  lambda_n = ln;
  return true;
}

bool parse_indexed_cell_name(std::string_view name, std::string& base, double& lambda_p,
                             double& lambda_n) {
  return split_indexed_cell_name(name, base, lambda_p, lambda_n) && lambda_p >= 0.0 &&
         lambda_p <= 1.0 && lambda_n >= 0.0 && lambda_n <= 1.0;
}

void append_json_string(std::string& out, std::string_view text) {
  // Runs of characters that need no escape are appended whole: the serve
  // path escapes a multi-kilobyte Liberty text into every reply.
  out += '"';
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) continue;
    out.append(text, run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default: {
        constexpr const char* hex = "0123456789abcdef";
        out += "\\u00";
        out += hex[(c >> 4) & 0xf];
        out += hex[c & 0xf];
      }
    }
  }
  out.append(text, run, text.size() - run);
  out += '"';
}

}  // namespace rw::util
