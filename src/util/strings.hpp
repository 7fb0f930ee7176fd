#pragma once

/// \file strings.hpp
/// String utilities shared by the Liberty/Verilog/SDF writers and parsers.

#include <string>
#include <string_view>
#include <vector>

namespace rw::util {

/// Split on any character in `delims`; empty tokens are dropped.
std::vector<std::string> split(std::string_view text, std::string_view delims = " \t\r\n");

std::string_view trim(std::string_view text);

/// Format a double with fixed decimals (locale-independent).
std::string format_fixed(double value, int decimals);

/// Formats a duty cycle for use in merged-library cell names: 0.4 -> "0.40".
/// The paper indexes merged cells as e.g. AND2_0.40_0.60.
std::string format_lambda(double lambda);

/// Compose the merged-library cell name `<base>_<lp>_<ln>` (Section 4.1).
std::string indexed_cell_name(std::string_view base, double lambda_p, double lambda_n);

/// Split `<base>_<λp>_<λn>` into its parts, whatever the indices' range;
/// both must be whole numbers in the `parse_number` sense. Returns false
/// (outputs untouched) when `name` carries no index (plain library cell).
bool split_indexed_cell_name(std::string_view name, std::string& base, double& lambda_p,
                             double& lambda_n);

/// `split_indexed_cell_name` restricted to indices in [0,1], the only ones a
/// merged library holds. On false the outputs are unspecified.
bool parse_indexed_cell_name(std::string_view name, std::string& base, double& lambda_p,
                             double& lambda_n);

/// Append `text` to `out` as a double-quoted JSON string (RFC 8259 escaping).
/// Shared by the lint JSON report and the characterization run manifest.
void append_json_string(std::string& out, std::string_view text);

}  // namespace rw::util
