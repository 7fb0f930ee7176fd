#pragma once

/// \file rules.hpp
/// Shared helpers for the rule implementations (netlist_rules.cpp,
/// library_rules.cpp, annotation_rules.cpp). The public entry points —
/// `netlist_rules()`, `library_rules()`, `annotation_rules()` — are declared
/// in linter.hpp; this header is internal to src/lint.

#include <string>

#include "liberty/library.hpp"
#include "lint/linter.hpp"

namespace rw::lint {

/// How an instance's cell name maps onto the library.
struct ResolvedCell {
  const liberty::Cell* cell = nullptr;  ///< exact match, or the base cell for indexed names
  bool indexed = false;   ///< name parses as `<base>_<λp>_<λn>`
  bool exact = false;     ///< the library holds the name verbatim
  std::string base;       ///< base cell name (== name when !indexed)
  double lambda_p = 0.0;
  double lambda_n = 0.0;
};

/// Looks up `name` in `library`: exact first, then (for λ-indexed names) the
/// base cell, so pin layout and arity stay checkable even when the indexed
/// corner itself is absent.
ResolvedCell resolve_cell(const liberty::Library& library, const std::string& name);

/// True when the library holds the cell under any name: plain `base` or any
/// λ-indexed `base_*` variant (merged libraries carry only the latter).
bool library_has_variant(const liberty::Library& library, const std::string& base);

}  // namespace rw::lint
