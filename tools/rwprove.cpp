/// \file rwprove.cpp
/// `rwprove` — certified interval STA over a gate-level netlist: proves
/// sound `[lo, hi]` bounds on the aged critical-path delay that hold for
/// *every* workload admitted by the declared input model, by bracketing each
/// instance's proven (λp, λn) interval with characterized λ-lattice corner
/// cells (--lib) and propagating arrival/slew intervals through the timing
/// graph. A candidate guardband is then certified or refuted against the
/// proven upper bound (PV001); overly wide proofs are ranked by per-edge
/// blame (PV002); instances with no in-bounds corners make the proof
/// vacuous (PV003).
///
/// Exit codes match rwlint:
///   0  clean, or info-level findings only
///   1  warnings
///   2  errors (unsound guardband, vacuous proof, unreadable inputs)
///   64 usage error (bad flags), as in sysexits.h
///
/// Typical runs:
///   rwprove --fresh fresh.lib --lib corners.lib design.v
///   rwprove --fresh fresh.lib --lib corners.lib --guardband 25 design.v
///   rwprove --fresh fresh.lib --lib corners.lib --input start=0.0:0.2 design.v
///
/// Output is deterministic and bitwise identical for any --threads value.

#include <iostream>
#include <string>
#include <vector>

#include "charlib/interval_query.hpp"
#include "cli.hpp"
#include "flow/cancel.hpp"
#include "liberty/library.hpp"
#include "liberty/parser.hpp"
#include "lint/linter.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "sta/analysis.hpp"
#include "sta/interval_sta.hpp"
#include "stress/analyzer.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: rwprove [options] netlist.v\n"
        "  --fresh FILE      fresh base library (resolves cells; fresh critical path)\n"
        "  --lib FILE        merged library of λ-indexed corner cells (repeatable)\n"
        "  --input NET=L:H   probability interval for one primary input (repeatable)\n"
        "  --default L:H     interval for undeclared primary inputs (default 0:1)\n"
        "  --clock P         duty cycle assumed on clock pins (default 0.5)\n"
        "  --iterations N    cap on sequential fixed-point rounds (default 64)\n"
        "  --step S          λ lattice quantization step (default 0.1)\n"
        "  --guardband PS    candidate guardband to certify against the proven bound\n"
        "  --budget PS       slack budget: warn when the proven interval is wider\n"
        "  --format FMT      output format: text (default) or json\n"
        "  --threads N       worker threads for parallel rule execution\n"
        "  -h, --help        this message\n"
        "exit codes: 0 certified/clean, 1 warnings, 2 errors/refuted, 64 usage error\n";
}

struct Args {
  std::string fresh_path;
  std::vector<std::string> lib_paths;
  rw::stress::AnalyzeOptions stress;
  double lambda_step = 0.1;
  double guardband_ps = -1.0;
  double budget_ps = -1.0;
  std::string format = "text";
  std::string netlist;
  bool help = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  rw::cli::Cursor cur("rwprove", argc, argv, print_usage);
  while (cur.next()) {
    if (cur.is("--fresh")) {
      args.fresh_path = cur.value();
    } else if (cur.is("--lib")) {
      args.lib_paths.emplace_back(cur.value());
    } else if (rw::cli::stress_flag(cur, args.stress)) {
      // --input, --default, --clock, --iterations
    } else if (cur.is("--step")) {
      args.lambda_step =
          cur.number<double>("a value in (0,1]", [](double v) { return v > 0.0 && v <= 1.0; });
    } else if (cur.is("--guardband")) {
      args.guardband_ps = cur.number<double>("a non-negative value in ps", rw::cli::non_negative);
    } else if (cur.is("--budget")) {
      args.budget_ps = cur.number<double>("a non-negative value in ps", rw::cli::non_negative);
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
  if (!args.help && (args.netlist.empty() || args.fresh_path.empty())) cur.fail_with_usage("");
  return args;
}

void append_real_interval_json(std::string& out, const rw::stress::RealInterval& v) {
  out += "{\"lo\":" + rw::util::format_fixed(v.lo, 6) +
         ",\"hi\":" + rw::util::format_fixed(v.hi, 6) + "}";
}

void print_json(const rw::netlist::Module& module, const rw::sta::IntervalSta& ista,
                const rw::sta::ProveSummary& summary,
                const std::vector<rw::lint::Diagnostic>& diagnostics, bool have_guardband,
                bool certified) {
  using rw::util::append_json_string;
  std::string out = "{\"module\":";
  append_json_string(out, module.name());
  out += ",\"fresh_cp_ps\":" + rw::util::format_fixed(summary.fresh_cp_ps, 6);
  out += ",\"aged_cp_ps\":";
  append_real_interval_json(out, summary.aged_cp_ps);
  out += std::string(",\"vacuous\":") + (summary.vacuous ? "true" : "false");
  if (have_guardband) {
    out += ",\"guardband_ps\":" + rw::util::format_fixed(summary.guardband_ps, 6);
    out += std::string(",\"certified\":") + (certified ? "true" : "false");
  }
  out += ",\"endpoints\":[";
  const auto& endpoints = ista.endpoints();
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    const auto& ep = endpoints[i];
    if (i != 0) out += ',';
    out += "{\"net\":";
    append_json_string(out, module.net_name(ep.net));
    out += std::string(",\"edge\":\"") + (ep.rising ? "rise" : "fall") + "\"";
    out += ",\"arrival\":";
    append_real_interval_json(out, ep.arrival_ps);
    out += ",\"setup\":";
    append_real_interval_json(out, ep.setup_ps);
    out += ",\"cost\":";
    append_real_interval_json(out, ep.cost_ps());
    out += std::string(",\"vacuous\":") + (ep.vacuous ? "true" : "false");
    out += '}';
  }
  out += "],\"blame\":[";
  for (std::size_t i = 0; i < summary.blame.size(); ++i) {
    const auto& b = summary.blame[i];
    if (i != 0) out += ',';
    out += "{\"instance\":";
    append_json_string(out, b.instance);
    out += ",\"cell\":";
    append_json_string(out, b.cell);
    out += ",\"pin\":";
    append_json_string(out, b.pin);
    out += ",\"width_ps\":" + rw::util::format_fixed(b.width_ps, 6);
    out += ",\"interp_ps\":" + rw::util::format_fixed(b.interp_ps, 6);
    out += '}';
  }
  out += "],\"vacuous_instances\":[";
  for (std::size_t i = 0; i < summary.vacuous_instances.size(); ++i) {
    if (i != 0) out += ',';
    append_json_string(out, summary.vacuous_instances[i]);
  }
  out += "],\"lint\":" + rw::lint::to_json(diagnostics) + "}";
  std::cout << out << "\n";
}

void print_text(const rw::netlist::Module& module, const rw::sta::IntervalSta& ista,
                const rw::sta::ProveSummary& summary,
                const std::vector<rw::lint::Diagnostic>& diagnostics, bool have_guardband,
                bool certified) {
  std::cout << "module " << module.name() << ": fresh critical path "
            << rw::util::format_fixed(summary.fresh_cp_ps, 4) << " ps\n"
            << "proven aged critical path " << summary.aged_cp_ps.str() << " ps (width "
            << rw::util::format_fixed(summary.aged_cp_ps.width(), 4) << " ps)"
            << (summary.vacuous ? " VACUOUS" : "") << "\n";
  if (have_guardband) {
    std::cout << "guardband " << rw::util::format_fixed(summary.guardband_ps, 4) << " ps: "
              << (certified ? "CERTIFIED" : "REFUTED") << " (proven requirement "
              << rw::util::format_fixed(summary.aged_cp_ps.hi - summary.fresh_cp_ps, 4)
              << " ps)\n";
  }
  for (const auto& ep : ista.endpoints()) {
    std::cout << "endpoint " << module.net_name(ep.net) << " (" << (ep.rising ? "rise" : "fall")
              << "): arrival " << ep.arrival_ps.str() << ", cost " << ep.cost_ps().str()
              << (ep.vacuous ? " vacuous" : "") << "\n";
  }
  for (const auto& b : summary.blame) {
    std::cout << "blame " << b.instance << "/" << b.pin << " (" << b.cell << "): width "
              << rw::util::format_fixed(b.width_ps, 4) << " ps, interp "
              << rw::util::format_fixed(b.interp_ps, 4) << " ps\n";
  }
  std::cout << rw::lint::format_report(diagnostics);
  std::cout << "rwprove: " << rw::lint::count(diagnostics, rw::lint::Severity::kError)
            << " error(s), " << rw::lint::count(diagnostics, rw::lint::Severity::kWarning)
            << " warning(s), " << rw::lint::count(diagnostics, rw::lint::Severity::kInfo)
            << " info\n";
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

  std::vector<rw::lint::Diagnostic> report;
  rw::liberty::Library fresh("fresh");
  try {
    fresh = rw::liberty::parse_library_file(args.fresh_path);
  } catch (const std::exception& e) {
    report.push_back(rw::cli::io_error(args.fresh_path, e.what()));
  }
  // λ-indexed corner cells, pooled across every --lib.
  rw::liberty::Library corners_pool("rwprove_corners");
  rw::cli::pool_libraries(args.lib_paths, corners_pool, report);
  if (!report.empty()) {
    std::cout << rw::lint::format_report(report);
    return rw::cli::exit_code(report);
  }

  rw::netlist::Module module("empty");
  try {
    module = rw::netlist::parse_verilog_file(args.netlist, fresh, {.lenient = true});
  } catch (const std::exception& e) {
    report.push_back(rw::cli::io_error(args.netlist, e.what()));
    std::cout << rw::lint::format_report(report);
    return rw::cli::exit_code(report);
  }

  // Structural + annotation + SP pre-flight against the fresh library; the
  // interval STA needs a sound module, so errors end the run here.
  rw::lint::LintSubject subject;
  subject.module = &module;
  subject.library = &fresh;
  subject.stress = &args.stress;
  subject.lambda_step = args.lambda_step;
  rw::lint::SubjectAnalysis analysis;
  subject.analysis = &analysis;
  std::vector<rw::lint::Diagnostic> diagnostics =
      rw::lint::Linter::netlist_linter().run(subject);
  if (rw::lint::worst_severity(diagnostics) >= rw::lint::Severity::kError) {
    std::cout << rw::lint::format_report(diagnostics);
    return rw::cli::exit_code(diagnostics);
  }

  try {
    const rw::stress::StressReport stress = analysis.stress_report(subject);
    const std::vector<rw::charlib::InstanceCorners> corners = rw::charlib::corners_from_library(
        module, stress, corners_pool, fresh, args.lambda_step);
    const rw::sta::IntervalSta ista(module, fresh, corners);
    const double fresh_cp = rw::sta::Sta(module, fresh).critical_delay_ps();
    rw::sta::ProveSummary summary = ista.summarize(fresh_cp);
    summary.guardband_ps = args.guardband_ps;
    summary.width_budget_ps = args.budget_ps;

    rw::lint::Linter prove_linter;
    prove_linter.add_rules(rw::lint::prove_rules());
    rw::lint::LintSubject prove_subject;
    prove_subject.module = &module;
    prove_subject.prove = &summary;
    for (auto& d : prove_linter.run(prove_subject)) diagnostics.push_back(std::move(d));

    const bool have_guardband = args.guardband_ps >= 0.0;
    const bool certified =
        have_guardband &&
        rw::lint::worst_severity(diagnostics) < rw::lint::Severity::kError;
    if (args.format == "json") {
      print_json(module, ista, summary, diagnostics, have_guardband, certified);
    } else {
      print_text(module, ista, summary, diagnostics, have_guardband, certified);
    }
    return rw::cli::exit_code(diagnostics);
  } catch (const std::exception& e) {
    std::cout << rw::lint::format_report(diagnostics);
    std::cerr << "rwprove: " << e.what() << "\n";
    return 2;
  }
}
