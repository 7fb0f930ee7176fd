/// \file rwactivity.cpp
/// `rwactivity` — simulation-free switching-activity analysis over a
/// gate-level netlist: proves per-net transition-density intervals
/// (toggles/cycle) that hold for *every* workload admitted by the declared
/// input model, derives per-instance toggle / switched-capacitance / HCI
/// activity bounds, then cross-checks everything with the AC lint rules
/// (AC001 measured-vs-bound oracle, AC002 proven-quiet nets, AC003
/// unavoidable hotspots).
///
/// Exit codes match rwlint:
///   0  clean, or info-level findings only
///   1  warnings
///   2  errors (including unreadable inputs / structurally broken netlists)
///   64 usage error (bad flags), as in sysexits.h
///
/// Typical runs:
///   rwactivity --lib fresh.lib design.v
///   rwactivity --lib fresh.lib --input start=0.4:0.6 --density start=0.2:0.4
///              --threshold 0.9 --format json design.v   (one command line)

#include <iostream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "flow/cancel.hpp"
#include "liberty/library.hpp"
#include "lint/linter.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "stress/activity_bounds.hpp"
#include "util/strings.hpp"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: rwactivity [options] netlist.v\n"
        "  --lib FILE         Liberty library to resolve cells against (repeatable)\n"
        "  --input NET=L:H    probability interval for one primary input (repeatable)\n"
        "  --density NET=L:H  toggles/cycle interval for one primary input (repeatable)\n"
        "  --default L:H      probability interval for undeclared inputs (default 0:1)\n"
        "  --default-density L:H  toggles/cycle for undeclared inputs (default: derived)\n"
        "  --clock T          transitions/cycle on the clock net (default 2)\n"
        "  --threshold X      AC003 hotspot threshold, toggles/cycle (default 1)\n"
        "  --iterations N     cap on sequential fixed-point rounds (default 64)\n"
        "  --format FMT       output format: text (default) or json\n"
        "  -h, --help         this message\n"
        "exit codes: 0 clean/info, 1 warnings, 2 errors, 64 usage error\n";
}

struct Args {
  std::vector<std::string> lib_paths;
  rw::stress::ActivityOptions options;
  double threshold = 1.0;
  std::string format = "text";
  std::string netlist;
  bool help = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  rw::cli::Cursor cur("rwactivity", argc, argv, print_usage);
  while (cur.next()) {
    if (cur.is("--lib")) {
      args.lib_paths.emplace_back(cur.value());
    } else if (cur.is("--density")) {
      std::string net;
      rw::stress::Interval v;
      if (!rw::stress::parse_net_interval(cur.value(), net, v)) {
        cur.fail("--density wants NET=LO:HI with 0 <= LO <= HI <= 1");
      }
      args.options.input_densities[net] = v;
    } else if (cur.is("--default-density")) {
      rw::stress::Interval v;
      if (!rw::stress::parse_interval(cur.value(), v)) {
        cur.fail("--default-density wants LO:HI with 0 <= LO <= HI <= 1");
      }
      args.options.default_input_density = v;
    } else if (cur.is("--clock")) {
      args.options.clock_transitions =
          cur.number<double>("transitions/cycle >= 0", rw::cli::non_negative);
    } else if (rw::cli::stress_flag(cur, args.options.probability)) {
      // --input, --default, --iterations
    } else if (cur.is("--threshold")) {
      args.threshold = cur.number<double>("toggles/cycle >= 0", rw::cli::non_negative);
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

void append_interval_json(std::string& out, double lo, double hi) {
  out += "{\"lo\":" + rw::util::format_fixed(lo, 6) +
         ",\"hi\":" + rw::util::format_fixed(hi, 6) + "}";
}

std::string interval_str(double lo, double hi) {
  return "[" + rw::util::format_fixed(lo, 6) + ", " + rw::util::format_fixed(hi, 6) + "]";
}

void print_json(const rw::netlist::Module& module, const rw::stress::ActivityReport& report,
                const std::vector<rw::lint::Diagnostic>& diagnostics) {
  using rw::util::append_json_string;
  std::string out = "{\"module\":";
  append_json_string(out, module.name());
  out += ",\"iterations\":" + std::to_string(report.probability.iterations);
  out += std::string(",\"converged\":") + (report.probability.converged ? "true" : "false");
  out += ",\"widened_nets\":" + std::to_string(report.widened_density_count());
  out += ",\"quiet_nets\":" + std::to_string(report.quiet_driven_nets);
  out += ",\"nets\":[";
  for (std::size_t net = 0; net < report.density.size(); ++net) {
    if (net != 0) out += ',';
    out += "{\"name\":";
    append_json_string(out, module.net_name(static_cast<rw::netlist::NetId>(net)));
    out += ",\"probability\":";
    append_interval_json(out, report.probability.net[net].lo, report.probability.net[net].hi);
    out += ",\"density\":";
    append_interval_json(out, report.density[net].lo, report.density[net].hi);
    out += std::string(",\"widened\":") + (report.density_widened[net] != 0 ? "true" : "false");
    out += std::string(",\"clock_fed\":") + (report.clock_fed[net] != 0 ? "true" : "false");
    out += '}';
  }
  out += "],\"instances\":[";
  for (std::size_t i = 0; i < report.instances.size(); ++i) {
    const auto& inst = report.instances[i];
    if (i != 0) out += ',';
    out += "{\"name\":";
    append_json_string(out, module.instances()[i].name);
    out += ",\"cell\":";
    append_json_string(out, module.instances()[i].cell);
    out += ",\"output_toggles\":";
    append_interval_json(out, inst.output_toggles.lo, inst.output_toggles.hi);
    out += ",\"load_ff\":" + rw::util::format_fixed(inst.load_ff, 6);
    out += ",\"switch_cap_ff\":";
    append_interval_json(out, inst.switch_cap_ff.lo, inst.switch_cap_ff.hi);
    out += ",\"hci\":";
    append_interval_json(out, inst.hci.lo, inst.hci.hi);
    out += std::string(",\"hci_from_stacks\":") + (inst.hci_from_stacks ? "true" : "false");
    out += std::string(",\"widened\":") + (inst.widened ? "true" : "false");
    out += '}';
  }
  out += "],\"lint\":" + rw::lint::to_json(diagnostics) + "}";
  std::cout << out << "\n";
}

void print_text(const rw::netlist::Module& module, const rw::stress::ActivityReport& report,
                const std::vector<rw::lint::Diagnostic>& diagnostics) {
  std::cout << "module " << module.name() << ": " << module.net_count() << " nets, "
            << module.instances().size() << " instances\n"
            << "fixed point: " << report.probability.iterations << " iteration(s), "
            << (report.probability.converged ? "converged" : "NOT converged") << "; "
            << report.widened_density_count() << " widened net(s), "
            << report.quiet_driven_nets << " proven-quiet driven net(s)\n";
  for (std::size_t net = 0; net < report.density.size(); ++net) {
    std::cout << "net " << module.net_name(static_cast<rw::netlist::NetId>(net))
              << ": prob " << report.probability.net[net].str() << ", density "
              << report.density[net].str()
              << (report.density_widened[net] != 0 ? " widened" : "")
              << (report.clock_fed[net] != 0 ? " clock-fed" : "") << "\n";
  }
  for (std::size_t i = 0; i < report.instances.size(); ++i) {
    const auto& inst = module.instances()[i];
    const auto& a = report.instances[i];
    std::cout << "inst " << inst.name << " (" << inst.cell << "): toggles "
              << a.output_toggles.str() << ", switch_cap_ff "
              << interval_str(a.switch_cap_ff.lo, a.switch_cap_ff.hi) << ", hci "
              << interval_str(a.hci.lo, a.hci.hi)
              << (a.hci_from_stacks ? "" : " (coarse)") << (a.widened ? " widened" : "")
              << "\n";
  }
  std::cout << rw::lint::format_report(diagnostics);
  std::cout << "rwactivity: " << rw::lint::count(diagnostics, rw::lint::Severity::kError)
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
  rw::liberty::Library pool("rwactivity_pool");
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

  // Full netlist lint (structural + SP + AC rules) with the declared input
  // model; the report reads the bounds the AC rules proved. A module the
  // analysis refuses ends the run with the diagnostics as the report.
  rw::lint::LintSubject subject;
  subject.module = &module;
  subject.library = &pool;
  subject.stress = &args.options.probability;
  subject.activity = &args.options;
  subject.activity_hotspot_threshold = args.threshold;
  rw::lint::SubjectAnalysis analysis;
  subject.analysis = &analysis;
  const auto diagnostics = rw::lint::Linter::netlist_linter().run(subject);

  rw::stress::ActivityReport activity;
  try {
    activity = analysis.activity_report(subject);
  } catch (const std::exception& e) {
    std::cout << rw::lint::format_report(diagnostics);
    std::cerr << "rwactivity: " << e.what() << "\n";
    return 2;
  }

  if (args.format == "json") {
    print_json(module, activity, diagnostics);
  } else {
    print_text(module, activity, diagnostics);
  }
  return rw::cli::exit_code(diagnostics);
}
