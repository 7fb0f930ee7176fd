/// Switching-activity bounds study over the paper's benchmark circuits:
/// proves workload-independent per-net transition-density intervals
/// (tools/rwactivity's engine) and duels them against a 500-cycle gate-level
/// simulation — checking containment (every measured toggle rate inside its
/// proven interval) and recording interval quality (mean width, proven-quiet
/// and widened net counts) plus the analysis-vs-simulation wall-time speedup
/// into BENCH_activity.json.
///
/// Flags:
///   --json-out=PATH   baseline path (default: BENCH_activity.json)
///   --circuits=N      first N benchmark circuits only (0 = all)
///   --threads N       evaluation threads
///
/// Exits non-zero when a measured rate escapes its proven interval — the
/// same soundness oracle tests/activity_test.cpp enforces.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "logicsim/activity.hpp"
#include "logicsim/simulator.hpp"
#include "stress/activity_bounds.hpp"
#include "util/atomic_file.hpp"
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
  std::size_t nets = 0;
  std::size_t widened_nets = 0;
  std::size_t quiet_nets = 0;
  double mean_width_free = 0.0;      ///< unconstrained input model
  double mean_width_declared = 0.0;  ///< p, d declared in [0.4, 0.6]
  double max_measured = 0.0;
  double analyze_ms = 0.0;
  double simulate_ms = 0.0;
  std::size_t violations = 0;
};

template <typename... Args>
void appendf(std::string& s, const char* fmt, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, args...);
  s += buf;
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::string out;
  appendf(out, "{\n  \"cycles\": 500,\n  \"circuits\": {\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    appendf(out, "    \"%s\": {\n", r.name.c_str());
    appendf(out, "      \"instances\": %zu,\n", r.instances);
    appendf(out, "      \"nets\": %zu,\n", r.nets);
    appendf(out, "      \"widened_nets\": %zu,\n", r.widened_nets);
    appendf(out, "      \"quiet_nets\": %zu,\n", r.quiet_nets);
    appendf(out,
            "      \"mean_interval_width\": {\"free\": %.4f, \"declared\": %.4f},\n",
            r.mean_width_free, r.mean_width_declared);
    appendf(out, "      \"max_measured_rate\": %.4f,\n", r.max_measured);
    appendf(out, "      \"containment_violations\": %zu,\n", r.violations);
    appendf(out,
            "      \"analysis\": {\"bounds_ms\": %.3f, \"sim_ms\": %.3f, "
            "\"speedup\": %.3f}\n",
            r.analyze_ms, r.simulate_ms,
            r.analyze_ms > 0.0 ? r.simulate_ms / r.analyze_ms : 0.0);
    appendf(out, "    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  appendf(out, "  }\n}\n");
  if (!rw::util::write_file_atomic_nothrow(path, out)) {
    std::fprintf(stderr, "activity baseline: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(stderr, "activity baseline written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  rw::bench::init(argc, argv);
  using namespace rw;

  // Expected info/warning findings (e.g. SP002 on dead logic) are noise in a
  // table-producing bench; errors still reach stderr.
  setenv("RW_LINT_MIN_SEVERITY", "error", 0);

  std::string json_out = "BENCH_activity.json";
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

  constexpr int kWarmup = 64;
  constexpr int kCycles = 500;
  bench::print_header(
      "Switching-activity bounds — proven toggle intervals vs a 500-cycle\n"
      "simulation on the paper benchmark circuits");

  std::vector<Row> rows;
  bool sound = true;
  for (const auto& bc : circuits::benchmark_suite()) {
    if (max_circuits > 0 && rows.size() >= max_circuits) break;
    const auto res =
        synth::synthesize(bc.build(), bench::fresh_library(), bc.name, bench::estimation_effort());
    const netlist::Module& module = res.module;

    Row row;
    row.name = bc.name;
    row.instances = module.instances().size();
    row.nets = static_cast<std::size_t>(module.net_count());

    // Two input models: the fully unconstrained one (sound for ANY workload,
    // exact containment required) and a declared box p, d ∈ [0.4, 0.6] that
    // admits the bench's Bernoulli(0.5) stimulus with finite-sample margin.
    stress::ActivityOptions declared;
    declared.probability.default_input = stress::Interval{0.4, 0.6};
    declared.default_input_density = stress::Interval{0.4, 0.6};

    // Wall-time duel: the proven declared-model bounds vs one simulated
    // workload over the same netlist.
    stress::ActivityReport free_report =
        stress::analyze_activity(module, bench::fresh_library(), {});
    stress::ActivityReport report;
    row.analyze_ms = wall_ms(
        [&] { report = stress::analyze_activity(module, bench::fresh_library(), declared); });
    row.widened_nets = report.widened_density_count();
    row.quiet_nets = report.quiet_driven_nets;

    util::Rng rng(1);
    logicsim::ActivityCollector activity(module.net_count());
    row.simulate_ms = wall_ms([&] {
      logicsim::CycleSimulator sim(module, bench::fresh_library());
      for (int cycle = 0; cycle < kWarmup + kCycles; ++cycle) {
        for (netlist::NetId pi : module.inputs()) {
          if (pi != module.clock()) sim.set_input(pi, rng.chance(0.5));
        }
        sim.evaluate();
        if (cycle >= kWarmup) activity.observe(sim);
        sim.clock_edge();
      }
    });

    // The unconstrained bounds must contain the measured rates exactly; the
    // declared-model bounds are on stationary expectations, so a 500-cycle
    // sample gets the same finite-sample slack tests/activity_test.cpp uses.
    constexpr double kSampleSlack = 0.05;
    double width_free = 0.0;
    double width_declared = 0.0;
    std::size_t width_n = 0;
    for (std::size_t net = 0; net < report.density.size(); ++net) {
      if (report.clock_fed[net] != 0) continue;  // intra-cycle toggles
      width_free += free_report.density[net].width();
      width_declared += report.density[net].width();
      ++width_n;
      const auto measured = activity.toggle_rate(static_cast<netlist::NetId>(net));
      if (!measured.has_value()) continue;
      row.max_measured = std::max(row.max_measured, *measured);
      const bool free_ok = *measured >= free_report.density[net].lo - 1e-9 &&
                           *measured <= free_report.density[net].hi + 1e-9;
      const bool declared_ok = *measured >= report.density[net].lo - kSampleSlack &&
                               *measured <= report.density[net].hi + kSampleSlack;
      if (!free_ok || !declared_ok) {
        ++row.violations;
        std::printf("ERROR: %s net %s measured %.6f outside proven %s (free %s)\n",
                    bc.name.c_str(),
                    module.net_name(static_cast<netlist::NetId>(net)).c_str(), *measured,
                    report.density[net].str().c_str(),
                    free_report.density[net].str().c_str());
      }
    }
    row.mean_width_free = width_n > 0 ? width_free / static_cast<double>(width_n) : 0.0;
    row.mean_width_declared =
        width_n > 0 ? width_declared / static_cast<double>(width_n) : 0.0;
    if (row.violations > 0) sound = false;
    rows.push_back(row);

    std::printf("%-8s %5zu inst %5zu nets  width %.3f free / %.3f declared  "
                "widened %4zu  bounds %7.2f ms vs sim %8.2f ms (%.1fx)\n",
                row.name.c_str(), row.instances, row.nets, row.mean_width_free,
                row.mean_width_declared, row.widened_nets, row.analyze_ms, row.simulate_ms,
                row.analyze_ms > 0.0 ? row.simulate_ms / row.analyze_ms : 0.0);
    std::fflush(stdout);
  }

  std::printf(
      "\nShape check: the proven intervals contain every simulated toggle rate\n"
      "at the cost of roughly ONE 500-cycle workload — and they hold for EVERY\n"
      "workload the input model admits, which no finite set of simulations does.\n");
  write_json(json_out, rows);
  return sound ? 0 : 1;
}
