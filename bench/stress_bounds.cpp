/// Static-vs-dynamic stress study over the paper's benchmark circuits:
/// compares the one-corner static worst case (Section 4.1), the
/// bounded-static guardband (each instance timed at its own worst corner
/// inside the statically *proven* λ interval), and the simulation-driven
/// dynamic flow (Fig. 4(b)) — and records the guardband deltas plus the
/// analysis-vs-simulation wall-time speedup into BENCH_stress.json.
///
/// Flags:
///   --json-out=PATH   baseline path (default: BENCH_stress.json)
///   --circuits=N      first N benchmark circuits only (0 = all)
///   --threads N       characterization/evaluation threads
///
/// Invariant checked here (and in tests/stress_test.cpp): the bounded-static
/// guardband can never exceed the one-corner static guardband, because every
/// in-bounds corner is dominated by the λp = λn = 1 worst case.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "util/atomic_file.hpp"
#include "flow/guardband_flow.hpp"
#include "logicsim/activity.hpp"
#include "logicsim/simulator.hpp"
#include "stress/analyzer.hpp"
#include "util/number.hpp"
#include "util/rng.hpp"

namespace {

double wall_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct Row {
  std::string name;
  std::size_t instances = 0;
  std::size_t candidate_corners = 0;
  std::size_t widened_nets = 0;
  double static_gb_ps = 0.0;
  double bounded_gb_ps = 0.0;
  double dynamic_gb_ps = 0.0;
  double analyze_ms = 0.0;
  double simulate_ms = 0.0;
};

template <typename... Args>
void appendf(std::string& s, const char* fmt, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, args...);
  s += buf;
}

void write_json(const std::string& path, double years, const std::vector<Row>& rows) {
  std::string out;
  appendf(out, "{\n  \"years\": %.1f,\n  \"lambda_step\": 0.1,\n", years);
  appendf(out, "  \"circuits\": {\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    appendf(out, "    \"%s\": {\n", r.name.c_str());
    appendf(out, "      \"instances\": %zu,\n", r.instances);
    appendf(out, "      \"candidate_corners\": %zu,\n", r.candidate_corners);
    appendf(out, "      \"widened_nets\": %zu,\n", r.widened_nets);
    appendf(out,
            "      \"guardband_ps\": {\"one_corner_static\": %.3f, "
            "\"bounded_static\": %.3f, \"dynamic\": %.3f},\n",
            r.static_gb_ps, r.bounded_gb_ps, r.dynamic_gb_ps);
    appendf(out, "      \"bounded_vs_static_delta_ps\": %.3f,\n",
            r.static_gb_ps - r.bounded_gb_ps);
    appendf(out,
            "      \"analysis\": {\"static_ms\": %.3f, \"dynamic_sim_ms\": %.3f, "
            "\"speedup\": %.3f}\n",
            r.analyze_ms, r.simulate_ms,
            r.analyze_ms > 0.0 ? r.simulate_ms / r.analyze_ms : 0.0);
    appendf(out, "    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  appendf(out, "  }\n}\n");
  if (!rw::util::write_file_atomic_nothrow(path, out)) {
    std::fprintf(stderr, "stress baseline: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(stderr, "stress baseline written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  rw::bench::init(argc, argv);
  using namespace rw;

  // Warning-level preflight findings (e.g. SP002 on dead logic) are noise in
  // a table-producing bench; errors still reach stderr. Respects an explicit
  // override from the environment.
  setenv("RW_LINT_MIN_SEVERITY", "error", 0);

  std::string json_out = "BENCH_stress.json";
  std::size_t max_circuits = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      json_out = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--circuits=", 11) == 0) {
      if (!util::parse_number(argv[i] + 11, max_circuits)) {
        util::usage_exit(argv[0], "--circuits wants a count");
      }
    }
  }

  constexpr double kYears = 10.0;
  constexpr int kCycles = 500;
  bench::print_header(
      "Static stress bounds — one-corner static vs bounded-static vs dynamic\n"
      "guardband on the paper benchmark circuits (10-year lifetime)");

  std::vector<Row> rows;
  for (const auto& bc : circuits::benchmark_suite()) {
    if (max_circuits > 0 && rows.size() >= max_circuits) break;
    const auto res =
        synth::synthesize(bc.build(), bench::fresh_library(), bc.name, bench::estimation_effort());
    const netlist::Module& module = res.module;

    Row row;
    row.name = bc.name;
    row.instances = module.instances().size();

    // Wall-time duel: the full static interval analysis vs one dynamic
    // workload (simulate + duty-cycle extraction) over the same netlist.
    stress::StressReport report;
    row.analyze_ms = wall_ms(
        [&] { report = stress::analyze(module, bench::fresh_library(), {}); });
    row.widened_nets = report.widened_net_count();

    util::Rng rng(1);
    row.simulate_ms = wall_ms([&] {
      logicsim::CycleSimulator sim(module, bench::fresh_library());
      logicsim::ActivityCollector activity(module.net_count());
      for (int cycle = 0; cycle < kCycles; ++cycle) {
        for (netlist::NetId pi : module.inputs()) {
          if (pi != module.clock()) sim.set_input(pi, rng.chance(0.5));
        }
        sim.evaluate();
        activity.observe(sim);
        sim.clock_edge();
      }
      (void)logicsim::extract_duty_cycles(module, bench::fresh_library(), activity);
    });

    const auto worst =
        flow::static_guardband(module, bench::factory(), aging::AgingScenario::worst_case(kYears));
    const auto bounded = flow::bounded_static_guardband(module, bench::factory(), kYears);
    util::Rng stim_rng(1);
    const flow::Stimulus stimulus = [&](logicsim::CycleSimulator& sim, int) {
      for (netlist::NetId pi : module.inputs()) {
        if (pi != module.clock()) sim.set_input(pi, stim_rng.chance(0.5));
      }
    };
    const auto dyn =
        flow::dynamic_workload_guardband(module, bench::factory(), stimulus, kCycles, kYears);

    row.static_gb_ps = worst.guardband_ps();
    row.bounded_gb_ps = bounded.report.guardband_ps();
    row.dynamic_gb_ps = dyn.report.guardband_ps();
    row.candidate_corners = bounded.candidate_corners;
    rows.push_back(row);

    std::printf("%-8s %5zu inst  static %8.1f ps  bounded %8.1f ps (-%5.1f)  "
                "dynamic %8.1f ps  analyze %7.2f ms vs sim %8.2f ms (%.0fx)\n",
                row.name.c_str(), row.instances, row.static_gb_ps, row.bounded_gb_ps,
                row.static_gb_ps - row.bounded_gb_ps, row.dynamic_gb_ps, row.analyze_ms,
                row.simulate_ms,
                row.analyze_ms > 0.0 ? row.simulate_ms / row.analyze_ms : 0.0);
    std::fflush(stdout);
    if (row.bounded_gb_ps > row.static_gb_ps + 1e-6) {
      std::printf("ERROR: bounded-static guardband exceeds the one-corner static "
                  "worst case on %s\n",
                  row.name.c_str());
      return 1;
    }
  }

  std::printf(
      "\nShape check: bounded-static sits between the dynamic (one workload,\n"
      "no guarantee) and the one-corner static worst case (sound but loose) —\n"
      "sound for EVERY workload admitted by the input model, at a fraction of\n"
      "the margin whenever the interval analysis proves activity bounds.\n");
  bench::print_quarantine_report(bench::factory());
  write_json(json_out, kYears, rows);
  return 0;
}
