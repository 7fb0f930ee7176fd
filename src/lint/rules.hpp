#pragma once

/// \file rules.hpp
/// Shared helpers for the rule implementations (netlist_rules.cpp,
/// library_rules.cpp, annotation_rules.cpp, stress_rules.cpp,
/// activity_rules.cpp). The public entry points —
/// `netlist_rules()`, `library_rules()`, `annotation_rules()` — are declared
/// in linter.hpp; this header is internal to src/lint.

#include <string>

#include "liberty/library.hpp"
#include "lint/linter.hpp"

namespace rw::lint {

using liberty::IndexRange;
using liberty::resolve_cell;
using liberty::ResolvedCell;

/// True when the library holds the cell under any name: plain `base` or any
/// λ-indexed `base_*` variant (merged libraries carry only the latter).
bool library_has_variant(const liberty::Library& library, const std::string& base);

}  // namespace rw::lint
