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

/// True when the stress and activity analyses can run soundly on the
/// subject: it has a module and a library, `Module::check()` is clean, and
/// every instance resolves to a cell of matching arity with a λ index (if
/// any) in [0,1]. Otherwise the NL/AN rules own the findings.
bool analyzable(const LintSubject& subject);

}  // namespace rw::lint
