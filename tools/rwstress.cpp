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
///
/// Output is deterministic and bitwise identical for any --threads value.

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "flow/cancel.hpp"
#include "liberty/library.hpp"
#include "liberty/parser.hpp"
#include "lint/linter.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "stress/analyzer.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace {

constexpr int kExitUsage = 64;

void print_usage(std::ostream& os) {
  os << "usage: rwstress [options] netlist.v\n"
        "  --lib FILE        Liberty library to resolve cells against (repeatable)\n"
        "  --input NET=L:H   probability interval for one primary input (repeatable)\n"
        "  --default L:H     interval for undeclared primary inputs (default 0:1)\n"
        "  --clock P         duty cycle assumed on clock pins (default 0.5)\n"
        "  --iterations N    cap on sequential fixed-point rounds (default 64)\n"
        "  --format FMT      output format: text (default) or json\n"
        "  --threads N       worker threads for the levelized evaluation\n"
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

bool parse_args(int argc, char** argv, Args& args) {
  const auto need_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "rwstress: " << flag << " needs a value\n";
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
    } else if (a == "--input") {
      const char* v = need_value(i, "--input");
      if (v == nullptr) return false;
      std::string net;
      rw::stress::Interval interval;
      if (!rw::stress::parse_net_interval(v, net, interval)) {
        std::cerr << "rwstress: --input wants NET=LO:HI with 0 <= LO <= HI <= 1\n";
        return false;
      }
      args.options.input_intervals[net] = interval;
    } else if (a == "--default") {
      const char* v = need_value(i, "--default");
      if (v == nullptr) return false;
      if (!rw::stress::parse_interval(v, args.options.default_input)) {
        std::cerr << "rwstress: --default wants LO:HI with 0 <= LO <= HI <= 1\n";
        return false;
      }
    } else if (a == "--clock") {
      const char* v = need_value(i, "--clock");
      if (v == nullptr) return false;
      try {
        args.options.clock_probability = std::stod(v);
      } catch (const std::exception&) {
        args.options.clock_probability = -1.0;
      }
      if (args.options.clock_probability < 0.0 || args.options.clock_probability > 1.0) {
        std::cerr << "rwstress: --clock wants a probability in [0,1]\n";
        return false;
      }
    } else if (a == "--iterations") {
      const char* v = need_value(i, "--iterations");
      if (v == nullptr) return false;
      args.options.max_iterations = std::atoi(v);
      if (args.options.max_iterations < 1) {
        std::cerr << "rwstress: --iterations wants a positive count\n";
        return false;
      }
    } else if (a == "--format") {
      const char* v = need_value(i, "--format");
      if (v == nullptr) return false;
      args.format = v;
    } else if (a == "-h" || a == "--help") {
      args.help = true;
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "rwstress: unknown flag " << a << "\n";
      return false;
    } else if (args.netlist.empty()) {
      args.netlist = a;
    } else {
      std::cerr << "rwstress: exactly one netlist per run\n";
      return false;
    }
  }
  if (args.format != "text" && args.format != "json") {
    std::cerr << "rwstress: --format must be text or json\n";
    return false;
  }
  if (!args.help && (args.netlist.empty() || args.lib_paths.empty())) {
    print_usage(std::cerr);
    return false;
  }
  return true;
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

rw::lint::Diagnostic io_error(const std::string& path, const std::string& what) {
  return rw::lint::Diagnostic{"IO001", rw::lint::Severity::kError, path, what,
                              "fix the file or the flag pointing at it"};
}

int exit_code(const std::vector<rw::lint::Diagnostic>& diagnostics) {
  switch (rw::lint::worst_severity(diagnostics)) {
    case rw::lint::Severity::kError:
      return 2;
    case rw::lint::Severity::kWarning:
      return 1;
    case rw::lint::Severity::kInfo:
      return 0;
  }
  return 0;
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

  std::vector<rw::lint::Diagnostic> report;
  rw::liberty::Library pool("rwstress_pool");
  for (const auto& path : args.lib_paths) {
    try {
      const rw::liberty::Library lib = rw::liberty::parse_library_file(path);
      for (const auto& cell : lib.cells()) {
        if (pool.find(cell.name) == nullptr) pool.add_cell(cell);
      }
    } catch (const std::exception& e) {
      report.push_back(io_error(path, e.what()));
    }
  }
  if (!report.empty()) {
    std::cout << rw::lint::format_report(report);
    return exit_code(report);
  }

  rw::netlist::Module module("empty");
  try {
    module = rw::netlist::parse_verilog_file(args.netlist, pool, {.lenient = true});
  } catch (const std::exception& e) {
    report.push_back(io_error(args.netlist, e.what()));
    std::cout << rw::lint::format_report(report);
    return exit_code(report);
  }

  // Full netlist lint (structural + annotation + SP cross-checks) with the
  // declared input model; the analysis below needs a structurally sound
  // module, so errors end the run with the diagnostics as the report.
  rw::lint::LintSubject subject;
  subject.module = &module;
  subject.library = &pool;
  subject.stress = &args.options;
  const auto diagnostics = rw::lint::Linter::netlist_linter().run(subject);

  rw::stress::StressReport stress;
  try {
    stress = rw::stress::analyze(module, pool, args.options);
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
  return exit_code(diagnostics);
}
