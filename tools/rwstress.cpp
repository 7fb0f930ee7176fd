/// \file rwstress.cpp
/// `rwstress` — simulation-free duty-cycle analysis over a gate-level
/// netlist: proves per-net signal-probability intervals and per-instance
/// (λp, λn) bounds that hold for *every* workload admitted by the declared
/// input model, then cross-checks them with the SP lint rules (SP001
/// annotation-vs-bound, SP002 proven-constant nets, SP003 vacuous bounds).
///
/// Exit codes match rwlint:
///   0  clean, or info-level findings only
///   1  warnings
///   2  errors (including unreadable inputs / structurally broken netlists)
///   64 usage error (bad flags), as in sysexits.h
///
/// Typical runs:
///   rwstress --lib fresh.lib design.v
///   rwstress --lib merged.lib --input start=0.0:0.2 --format json annotated.v

#include <iostream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "flow/cancel.hpp"
#include "liberty/library.hpp"
#include "lint/linter.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "stress/analyzer.hpp"
#include "util/strings.hpp"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: rwstress [options] netlist.v\n"
        "  --lib FILE        Liberty library to resolve cells against (repeatable)\n"
        "  --input NET=L:H   probability interval for one primary input (repeatable)\n"
        "  --default L:H     interval for undeclared primary inputs (default 0:1)\n"
        "  --clock P         duty cycle assumed on clock pins (default 0.5)\n"
        "  --iterations N    cap on sequential fixed-point rounds (default 64)\n"
        "  --format FMT      output format: text (default) or json\n"
        "  -h, --help        this message\n"
        "exit codes: 0 clean/info, 1 warnings, 2 errors, 64 usage error\n";
}

struct Args {
  std::vector<std::string> lib_paths;
  rw::stress::AnalyzeOptions options;
  std::string format = "text";
  std::string netlist;
  bool help = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  rw::cli::Cursor cur("rwstress", argc, argv, print_usage);
  while (cur.next()) {
    if (cur.is("--lib")) {
      args.lib_paths.emplace_back(cur.value());
    } else if (rw::cli::stress_flag(cur, args.options)) {
      // --input, --default, --clock, --iterations
    } else if (cur.is("--format")) {
      args.format = cur.value();
    } else if (cur.is("-h") || cur.is("--help")) {
      args.help = true;
    } else if (cur.flag()) {
      cur.unknown();
    } else if (args.netlist.empty()) {
      args.netlist = cur.arg();
    } else {
      cur.fail("exactly one netlist per run");
    }
  }
  if (args.format != "text" && args.format != "json") cur.fail("--format must be text or json");
  if (!args.help && (args.netlist.empty() || args.lib_paths.empty())) cur.fail_with_usage("");
  return args;
}

void append_interval_json(std::string& out, const rw::stress::Interval& v) {
  out += "{\"lo\":" + rw::util::format_fixed(v.lo, 6) +
         ",\"hi\":" + rw::util::format_fixed(v.hi, 6) + "}";
}

void print_json(const rw::netlist::Module& module, const rw::stress::StressReport& report,
                const std::vector<rw::lint::Diagnostic>& diagnostics) {
  using rw::util::append_json_string;
  std::string out = "{\"module\":";
  append_json_string(out, module.name());
  out += ",\"iterations\":" + std::to_string(report.iterations);
  out += std::string(",\"converged\":") + (report.converged ? "true" : "false");
  out += ",\"nets\":[";
  for (std::size_t net = 0; net < report.net.size(); ++net) {
    if (net != 0) out += ',';
    out += "{\"name\":";
    append_json_string(out, module.net_name(static_cast<rw::netlist::NetId>(net)));
    out += ",\"interval\":";
    append_interval_json(out, report.net[net]);
    out += std::string(",\"widened\":") + (report.net_widened[net] != 0 ? "true" : "false");
    out += '}';
  }
  out += "],\"instances\":[";
  for (std::size_t i = 0; i < report.instances.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"name\":";
    append_json_string(out, module.instances()[i].name);
    out += ",\"cell\":";
    append_json_string(out, module.instances()[i].cell);
    out += ",\"lambda_p\":";
    append_interval_json(out, report.instances[i].lambda_p);
    out += ",\"lambda_n\":";
    append_interval_json(out, report.instances[i].lambda_n);
    out += std::string(",\"widened\":") + (report.instances[i].widened ? "true" : "false");
    out += '}';
  }
  out += "],\"lint\":" + rw::lint::to_json(diagnostics) + "}";
  std::cout << out << "\n";
}

void print_text(const rw::netlist::Module& module, const rw::stress::StressReport& report,
                const std::vector<rw::lint::Diagnostic>& diagnostics) {
  std::cout << "module " << module.name() << ": " << module.net_count() << " nets, "
            << module.instances().size() << " instances\n"
            << "fixed point: " << report.iterations << " iteration(s), "
            << (report.converged ? "converged" : "NOT converged") << "; "
            << report.widened_net_count() << " widened net(s), " << report.constant_net_count()
            << " constant net(s)\n";
  for (std::size_t net = 0; net < report.net.size(); ++net) {
    std::cout << "net " << module.net_name(static_cast<rw::netlist::NetId>(net)) << ": "
              << report.net[net].str() << (report.net_widened[net] != 0 ? " widened" : "")
              << "\n";
  }
  for (std::size_t i = 0; i < report.instances.size(); ++i) {
    const auto& inst = module.instances()[i];
    const auto& b = report.instances[i];
    std::cout << "inst " << inst.name << " (" << inst.cell << "): lambda_p "
              << b.lambda_p.str() << ", lambda_n " << b.lambda_n.str()
              << (b.widened ? " widened" : "") << "\n";
  }
  std::cout << rw::lint::format_report(diagnostics);
  std::cout << "rwstress: " << rw::lint::count(diagnostics, rw::lint::Severity::kError)
            << " error(s), " << rw::lint::count(diagnostics, rw::lint::Severity::kWarning)
            << " warning(s), " << rw::lint::count(diagnostics, rw::lint::Severity::kInfo)
            << " info\n";
}

}  // namespace

int main(int argc, char** argv) {
  rw::flow::install_signal_handlers();
  rw::flow::install_deadline_from_env();
  Args args = parse_args(argc, argv);
  if (args.help) {
    print_usage(std::cout);
    return 0;
  }

  std::vector<rw::lint::Diagnostic> report;
  rw::liberty::Library pool("rwstress_pool");
  rw::cli::pool_libraries(args.lib_paths, pool, report);
  if (!report.empty()) {
    std::cout << rw::lint::format_report(report);
    return rw::cli::exit_code(report);
  }

  rw::netlist::Module module("empty");
  try {
    module = rw::netlist::parse_verilog_file(args.netlist, pool, {.lenient = true});
  } catch (const std::exception& e) {
    report.push_back(rw::cli::io_error(args.netlist, e.what()));
    std::cout << rw::lint::format_report(report);
    return rw::cli::exit_code(report);
  }

  // Full netlist lint (structural + annotation + SP cross-checks) with the
  // declared input model; the report reads the bounds the SP rules proved.
  // A module the analysis refuses ends the run with the diagnostics as the
  // report.
  rw::lint::LintSubject subject;
  subject.module = &module;
  subject.library = &pool;
  subject.stress = &args.options;
  rw::lint::SubjectAnalysis analysis;
  subject.analysis = &analysis;
  const auto diagnostics = rw::lint::Linter::netlist_linter().run(subject);

  rw::stress::StressReport stress;
  try {
    stress = analysis.stress_report(subject);
  } catch (const std::exception& e) {
    std::cout << rw::lint::format_report(diagnostics);
    std::cerr << "rwstress: " << e.what() << "\n";
    return 2;
  }

  if (args.format == "json") {
    print_json(module, stress, diagnostics);
  } else {
    print_text(module, stress, diagnostics);
  }
  return rw::cli::exit_code(diagnostics);
}
