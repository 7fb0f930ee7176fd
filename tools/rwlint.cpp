/// \file rwlint.cpp
/// `rwlint` — design-rule static analysis over the repo's own artifacts:
/// structural Verilog netlists (including λ-annotated ones), Liberty
/// libraries, and the consistency between the two. Netlists are parsed in
/// lenient mode so every violation is reported, not just the first.
///
/// Exit codes (severity-based):
///   0  clean, or info-level findings only
///   1  warnings
///   2  errors
///   64 usage error (bad flags), as in sysexits.h
///
/// Typical runs:
///   rwlint --lib merged.lib annotated.v
///   rwlint --format json --lib fresh.lib --grid 7x7 design.v
///   rwlint --fresh fresh.lib --lib aged10y.lib          # library-only lint

#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "charlib/opc.hpp"
#include "cli.hpp"
#include "flow/orchestrator.hpp"
#include "liberty/library.hpp"
#include "liberty/parser.hpp"
#include "lint/baseline.hpp"
#include "lint/linter.hpp"
#include "util/atomic_file.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "util/thread_pool.hpp"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: rwlint [options] [netlist.v ...]\n"
        "  --lib FILE       Liberty library to lint and resolve cells against (repeatable)\n"
        "  --fresh FILE     fresh baseline library (enables aged-vs-fresh checks)\n"
        "  --grid SPEC      expected OPC grid: 7x7 (paper), 3x3 (coarse), or none\n"
        "  --flow-manifest FILE  check a flow checkpoint manifest against its\n"
        "                   artifacts (FL001; repeatable)\n"
        "  --cache-dir DIR  scan a characterization cache for stale serve\n"
        "                   artifacts: unheld leases, dead sockets (SV001)\n"
        "  --format FMT     output format: text (default) or json\n"
        "  --baseline FILE  suppress findings recorded in FILE; when FILE does not\n"
        "                   exist, record the current findings into it and exit 0\n"
        "  --update-baseline  with --baseline: rewrite FILE from this run's findings\n"
        "  --threads N      worker threads for parallel rule execution\n"
        "  --list-rules     print the rule catalog and exit\n"
        "  --explain ID     print one rule's description and fix hint, then exit\n"
        "  -h, --help       this message\n"
        "exit codes: 0 clean/info, 1 warnings, 2 errors, 64 usage error\n";
}

void list_rules() {
  const rw::lint::Linter linter = rw::lint::Linter::all_rules();
  for (const auto& rule : linter.rules()) {
    std::cout << rule->id() << ": " << rule->description() << "\n";
  }
}

/// `--explain SP001` prints the catalog entry: what the rule flags, at which
/// severity, and how to fix it. Unknown ids exit with the usage code.
int explain_rule(const std::string& id) {
  const rw::lint::RuleInfo* info = rw::lint::find_rule_info(id);
  if (info == nullptr) {
    std::cerr << "rwlint: unknown rule id '" << id << "' (see --list-rules)\n";
    return rw::util::kExitUsage;
  }
  std::cout << info->id << " (" << rw::lint::to_string(info->severity) << "): " << info->summary
            << "\n  fix: " << info->fix_hint << "\n";
  return 0;
}

struct Args {
  std::vector<std::string> lib_paths;
  std::string fresh_path;
  std::string grid;
  std::string format = "text";
  std::string explain;
  std::string baseline;
  bool update_baseline = false;
  std::vector<std::string> flow_manifests;
  std::string cache_dir;
  std::vector<std::string> netlists;
  bool list = false;
  bool help = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  rw::cli::Cursor cur("rwlint", argc, argv, print_usage);
  while (cur.next()) {
    if (cur.is("--lib")) {
      args.lib_paths.emplace_back(cur.value());
    } else if (cur.is("--fresh")) {
      args.fresh_path = cur.value();
    } else if (cur.is("--grid")) {
      args.grid = cur.value();
    } else if (cur.is("--flow-manifest")) {
      args.flow_manifests.emplace_back(cur.value());
    } else if (cur.is("--cache-dir")) {
      args.cache_dir = cur.value();
    } else if (cur.is("--format")) {
      args.format = cur.value();
    } else if (cur.is("--baseline")) {
      args.baseline = cur.value();
    } else if (cur.is("--update-baseline")) {
      args.update_baseline = true;
    } else if (cur.is("--list-rules")) {
      args.list = true;
    } else if (cur.is("--explain")) {
      args.explain = cur.value();
    } else if (cur.is("-h") || cur.is("--help")) {
      args.help = true;
    } else if (cur.flag()) {
      cur.unknown();
    } else {
      args.netlists.push_back(cur.arg());
    }
  }
  if (args.format != "text" && args.format != "json") cur.fail("--format must be text or json");
  if (!args.grid.empty() && args.grid != "7x7" && args.grid != "3x3" && args.grid != "none") {
    cur.fail("--grid must be 7x7, 3x3, or none");
  }
  if (args.update_baseline && args.baseline.empty()) {
    cur.fail("--update-baseline needs --baseline FILE");
  }
  if (!args.netlists.empty() && args.lib_paths.empty()) {
    cur.fail("netlists need at least one --lib to resolve cells");
  }
  if (args.netlists.empty() && args.lib_paths.empty() && args.flow_manifests.empty() &&
      args.cache_dir.empty() && !args.list && !args.help && args.explain.empty()) {
    cur.fail_with_usage("");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  rw::flow::install_signal_handlers();
  rw::flow::install_deadline_from_env();
  rw::util::consume_thread_flag(argc, argv);
  Args args = parse_args(argc, argv);
  if (args.help) {
    print_usage(std::cout);
    return 0;
  }
  if (args.list) {
    list_rules();
    return 0;
  }
  if (!args.explain.empty()) return explain_rule(args.explain);

  rw::charlib::OpcGrid grid;
  const rw::charlib::OpcGrid* expected_grid = nullptr;
  if (args.grid == "7x7") {
    grid = rw::charlib::OpcGrid::paper();
    expected_grid = &grid;
  } else if (args.grid == "3x3") {
    grid = rw::charlib::OpcGrid::coarse();
    expected_grid = &grid;
  }

  std::vector<rw::lint::Diagnostic> report;
  const auto append = [&report](std::vector<rw::lint::Diagnostic> diags) {
    for (auto& d : diags) report.push_back(std::move(d));
  };

  rw::liberty::Library fresh("fresh");
  bool have_fresh = false;
  if (!args.fresh_path.empty()) {
    try {
      fresh = rw::liberty::parse_library_file(args.fresh_path);
      have_fresh = true;
    } catch (const std::exception& e) {
      report.push_back(rw::cli::io_error(args.fresh_path, e.what()));
    }
  }

  // Lint each library on its own (grid/value/arc rules see one coherent
  // artifact), then pool every cell into a union library that resolves the
  // netlists' cell references.
  const rw::lint::Linter lib_linter = rw::lint::Linter::library_linter();
  rw::liberty::Library pool("rwlint_pool");
  const auto lint_library = [&](const rw::liberty::Library& lib,
                                const rw::liberty::Library* against) {
    rw::lint::LintSubject subject;
    subject.library = &lib;
    subject.fresh = against;
    subject.expected_grid = expected_grid;
    append(lib_linter.run(subject));
  };
  if (have_fresh) {
    lint_library(fresh, nullptr);
    rw::cli::add_cells(pool, fresh);
  }
  rw::cli::pool_libraries(args.lib_paths, pool, report, [&](const rw::liberty::Library& lib) {
    lint_library(lib, have_fresh ? &fresh : nullptr);
  });

  const rw::lint::Linter netlist_linter = rw::lint::Linter::netlist_linter();
  for (const auto& path : args.netlists) {
    try {
      const rw::netlist::Module module =
          rw::netlist::parse_verilog_file(path, pool, {.lenient = true});
      rw::lint::LintSubject subject;
      subject.module = &module;
      subject.library = &pool;
      append(netlist_linter.run(subject));
    } catch (const std::exception& e) {
      report.push_back(rw::cli::io_error(path, e.what()));
    }
  }

  // FL001: flow checkpoint manifests vs the artifacts they reference.
  for (const auto& path : args.flow_manifests) {
    append(rw::flow::lint_flow_manifest(path));
  }

  // SV001: stale serve artifacts (unheld leases, dead sockets) in a cache root.
  if (!args.cache_dir.empty()) {
    rw::lint::Linter serve_linter;
    serve_linter.add_rules(rw::lint::serve_rules());
    rw::lint::LintSubject subject;
    subject.cache_dir = args.cache_dir;
    append(serve_linter.run(subject));
  }

  // Baseline handling: an existing file suppresses exact matches (only *new*
  // findings affect the exit code); a missing file — or --update-baseline —
  // records this run's findings as the accepted set.
  std::size_t suppressed = 0;
  if (!args.baseline.empty()) {
    std::set<std::string> keys;
    if (!args.update_baseline && rw::lint::read_baseline(args.baseline, keys)) {
      suppressed = rw::lint::suppress_baselined(report, keys);
    } else {
      if (!rw::util::write_file_atomic_nothrow(args.baseline,
                                               rw::lint::encode_baseline(report))) {
        report.push_back(rw::cli::io_error(args.baseline, "cannot write baseline file"));
      } else {
        std::cerr << "rwlint: recorded " << report.size() << " finding(s) to baseline "
                  << args.baseline << "\n";
        suppressed = report.size();
        report.clear();
      }
    }
  }

  if (args.format == "json") {
    std::cout << rw::lint::to_json(report) << "\n";
  } else {
    std::cout << rw::lint::format_report(report);
    std::cout << "rwlint: " << rw::lint::count(report, rw::lint::Severity::kError) << " error(s), "
              << rw::lint::count(report, rw::lint::Severity::kWarning) << " warning(s), "
              << rw::lint::count(report, rw::lint::Severity::kInfo) << " info";
    if (suppressed != 0) std::cout << ", " << suppressed << " suppressed by baseline";
    std::cout << "\n";
  }
  return rw::cli::exit_code(report);
}
