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

#include <cstring>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "charlib/opc.hpp"
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

constexpr int kExitUsage = 64;

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
    return kExitUsage;
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

bool parse_args(int argc, char** argv, Args& args) {
  const auto need_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "rwlint: " << flag << " needs a value\n";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--lib") {
      const char* v = need_value(i, "--lib");
      if (v == nullptr) return false;
      args.lib_paths.emplace_back(v);
    } else if (a == "--fresh") {
      const char* v = need_value(i, "--fresh");
      if (v == nullptr) return false;
      args.fresh_path = v;
    } else if (a == "--grid") {
      const char* v = need_value(i, "--grid");
      if (v == nullptr) return false;
      args.grid = v;
    } else if (a == "--flow-manifest") {
      const char* v = need_value(i, "--flow-manifest");
      if (v == nullptr) return false;
      args.flow_manifests.emplace_back(v);
    } else if (a == "--cache-dir") {
      const char* v = need_value(i, "--cache-dir");
      if (v == nullptr) return false;
      args.cache_dir = v;
    } else if (a == "--format") {
      const char* v = need_value(i, "--format");
      if (v == nullptr) return false;
      args.format = v;
    } else if (a == "--baseline") {
      const char* v = need_value(i, "--baseline");
      if (v == nullptr) return false;
      args.baseline = v;
    } else if (a == "--update-baseline") {
      args.update_baseline = true;
    } else if (a == "--list-rules") {
      args.list = true;
    } else if (a == "--explain") {
      const char* v = need_value(i, "--explain");
      if (v == nullptr) return false;
      args.explain = v;
    } else if (a == "-h" || a == "--help") {
      args.help = true;
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "rwlint: unknown flag " << a << "\n";
      return false;
    } else {
      args.netlists.push_back(a);
    }
  }
  if (args.format != "text" && args.format != "json") {
    std::cerr << "rwlint: --format must be text or json\n";
    return false;
  }
  if (!args.grid.empty() && args.grid != "7x7" && args.grid != "3x3" && args.grid != "none") {
    std::cerr << "rwlint: --grid must be 7x7, 3x3, or none\n";
    return false;
  }
  if (args.update_baseline && args.baseline.empty()) {
    std::cerr << "rwlint: --update-baseline needs --baseline FILE\n";
    return false;
  }
  if (!args.netlists.empty() && args.lib_paths.empty()) {
    std::cerr << "rwlint: netlists need at least one --lib to resolve cells\n";
    return false;
  }
  if (args.netlists.empty() && args.lib_paths.empty() && args.flow_manifests.empty() &&
      args.cache_dir.empty() && !args.list && !args.help && args.explain.empty()) {
    print_usage(std::cerr);
    return false;
  }
  return true;
}

/// File-level failures (unreadable, unparsable) become diagnostics so the
/// report — and the JSON output — stays complete and well-formed.
rw::lint::Diagnostic io_error(const std::string& path, const std::string& what) {
  return rw::lint::Diagnostic{"IO001", rw::lint::Severity::kError, path, what,
                              "fix the file or the flag pointing at it"};
}

}  // namespace

int main(int argc, char** argv) {
  rw::flow::install_signal_handlers();
  rw::flow::install_deadline_from_env();
  rw::util::consume_thread_flag(argc, argv);
  Args args;
  if (!parse_args(argc, argv, args)) return kExitUsage;
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
      report.push_back(io_error(args.fresh_path, e.what()));
    }
  }

  // Lint each library on its own (grid/value/arc rules see one coherent
  // artifact), then pool every cell into a union library that resolves the
  // netlists' cell references.
  const rw::lint::Linter lib_linter = rw::lint::Linter::library_linter();
  rw::liberty::Library pool("rwlint_pool");
  if (have_fresh) {
    rw::lint::LintSubject subject;
    subject.library = &fresh;
    subject.expected_grid = expected_grid;
    append(lib_linter.run(subject));
    for (const auto& cell : fresh.cells()) {
      if (pool.find(cell.name) == nullptr) pool.add_cell(cell);
    }
  }
  for (const auto& path : args.lib_paths) {
    try {
      const rw::liberty::Library lib = rw::liberty::parse_library_file(path);
      rw::lint::LintSubject subject;
      subject.library = &lib;
      subject.fresh = have_fresh ? &fresh : nullptr;
      subject.expected_grid = expected_grid;
      append(lib_linter.run(subject));
      for (const auto& cell : lib.cells()) {
        if (pool.find(cell.name) == nullptr) pool.add_cell(cell);
      }
    } catch (const std::exception& e) {
      report.push_back(io_error(path, e.what()));
    }
  }

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
      report.push_back(io_error(path, e.what()));
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
        report.push_back(io_error(args.baseline, "cannot write baseline file"));
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
  switch (rw::lint::worst_severity(report)) {
    case rw::lint::Severity::kError:
      return 2;
    case rw::lint::Severity::kWarning:
      return 1;
    case rw::lint::Severity::kInfo:
      return 0;
  }
  return 0;
}
