/// Certified-bound study over the paper's benchmark circuits: for every
/// circuit, `rwprove`'s interval STA proves an aged critical-path interval
/// (no simulation), and three RNG workloads driven through the dynamic flow
/// (Fig. 4(b)) must land *inside* it. Records, per circuit, the proven
/// interval under the default [0, 1] input model and under a narrowed
/// [0.1, 0.9] model, the one-corner static and per-seed dynamic guardbands,
/// and the prove-vs-simulate wall time into BENCH_prove.json.
///
/// Flags:
///   --json-out=PATH   baseline path (default: BENCH_prove.json)
///   --circuits=N      first N benchmark circuits only (0 = all)
///   --threads N       characterization/evaluation threads
///
/// Invariants checked here (exit 1 on violation; also in
/// tests/prove_test.cpp):
///   interval.lo <= dynamic aged CP <= interval.hi   for every seed, under
///                                                   both input models, and
///   proven upper-bound guardband >= every dynamic guardband.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "flow/guardband_flow.hpp"
#include "flow/prove_flow.hpp"
#include "stress/analyzer.hpp"
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
  std::size_t candidate_corners = 0;
  double fresh_cp_ps = 0.0;
  rw::stress::RealInterval proven_ps;         // default [0, 1] input model
  rw::stress::RealInterval proven_narrow_ps;  // narrowed [0.1, 0.9] model
  double static_gb_ps = 0.0;
  std::vector<double> dynamic_aged_ps;  // one entry per workload seed
  double prove_ms = 0.0;
  double simulate_ms = 0.0;  // all workload seeds together
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
  appendf(out, "  \"narrow_input_model\": [0.1, 0.9],\n");
  appendf(out, "  \"circuits\": {\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    appendf(out, "    \"%s\": {\n", r.name.c_str());
    appendf(out, "      \"instances\": %zu,\n", r.instances);
    appendf(out, "      \"candidate_corners\": %zu,\n", r.candidate_corners);
    appendf(out, "      \"fresh_cp_ps\": %.4f,\n", r.fresh_cp_ps);
    appendf(out, "      \"proven_aged_ps\": {\"lo\": %.4f, \"hi\": %.4f, \"width\": %.4f},\n",
            r.proven_ps.lo, r.proven_ps.hi, r.proven_ps.width());
    appendf(out,
            "      \"proven_aged_narrow_ps\": {\"lo\": %.4f, \"hi\": %.4f, "
            "\"width\": %.4f},\n",
            r.proven_narrow_ps.lo, r.proven_narrow_ps.hi, r.proven_narrow_ps.width());
    appendf(out, "      \"dynamic_aged_ps\": [");
    for (std::size_t s = 0; s < r.dynamic_aged_ps.size(); ++s) {
      appendf(out, "%s%.4f", s > 0 ? ", " : "", r.dynamic_aged_ps[s]);
    }
    appendf(out, "],\n");
    double dyn_gb = 0.0;
    for (double aged : r.dynamic_aged_ps) {
      dyn_gb = std::max(dyn_gb, aged - r.fresh_cp_ps);
    }
    appendf(out,
            "      \"guardband_ps\": {\"proven_upper\": %.4f, "
            "\"one_corner_static\": %.4f, \"dynamic_max\": %.4f},\n",
            r.proven_ps.hi - r.fresh_cp_ps, r.static_gb_ps, dyn_gb);
    appendf(out,
            "      \"analysis\": {\"prove_ms\": %.3f, \"dynamic_sim_ms\": %.3f, "
            "\"speedup\": %.3f}\n",
            r.prove_ms, r.simulate_ms, r.prove_ms > 0.0 ? r.simulate_ms / r.prove_ms : 0.0);
    appendf(out, "    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  appendf(out, "  }\n}\n");
  if (!rw::util::write_file_atomic_nothrow(path, out)) {
    std::fprintf(stderr, "prove baseline: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(stderr, "prove baseline written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  rw::bench::init(argc, argv);
  using namespace rw;

  // Warning-level preflight findings (e.g. SP002 on dead logic) are noise in
  // a table-producing bench; errors still reach stderr. Respects an explicit
  // override from the environment.
  setenv("RW_LINT_MIN_SEVERITY", "error", 0);

  std::string json_out = "BENCH_prove.json";
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
  constexpr int kSeeds[] = {1, 2, 3};
  constexpr double kEps = 1e-6;
  bench::print_header(
      "Certified interval STA — proven aged-delay bounds vs one-corner static\n"
      "and simulated dynamic guardbands on the paper benchmark circuits");

  // Narrowed input model: every PI confined to [0.1, 0.9]. The RNG stimulus
  // below drives each PI at duty ~0.5 over 500 cycles, so its workloads are
  // admitted by both models and must land inside both proven intervals.
  stress::AnalyzeOptions narrow;
  narrow.default_input = stress::Interval{0.1, 0.9};

  bool violated = false;
  std::vector<Row> rows;
  for (const auto& bc : circuits::benchmark_suite()) {
    if (max_circuits > 0 && rows.size() >= max_circuits) break;
    const auto res =
        synth::synthesize(bc.build(), bench::fresh_library(), bc.name, bench::estimation_effort());
    const netlist::Module& module = res.module;

    Row row;
    row.name = bc.name;
    row.instances = module.instances().size();

    flow::ProvenGuardbandResult proven;
    row.prove_ms =
        wall_ms([&] { proven = flow::proven_guardband(module, bench::factory(), kYears); });
    const flow::ProvenGuardbandResult proven_narrow =
        flow::proven_guardband(module, bench::factory(), kYears, -1.0, narrow);
    row.fresh_cp_ps = proven.summary.fresh_cp_ps;
    row.proven_ps = proven.summary.aged_cp_ps;
    row.proven_narrow_ps = proven_narrow.summary.aged_cp_ps;
    row.candidate_corners = proven.candidate_corners;
    if (proven.summary.vacuous || proven_narrow.summary.vacuous) {
      std::printf("ERROR: vacuous proof on %s — missing bracket corners\n", row.name.c_str());
      violated = true;
    }

    const auto worst =
        flow::static_guardband(module, bench::factory(), aging::AgingScenario::worst_case(kYears));
    row.static_gb_ps = worst.guardband_ps();

    for (const int seed : kSeeds) {
      util::Rng rng(static_cast<std::uint64_t>(seed));
      const flow::Stimulus stimulus = [&](logicsim::CycleSimulator& sim, int) {
        for (netlist::NetId pi : module.inputs()) {
          if (pi != module.clock()) sim.set_input(pi, rng.chance(0.5));
        }
      };
      std::optional<flow::DynamicAgingResult> dyn;
      row.simulate_ms += wall_ms([&] {
        dyn.emplace(
            flow::dynamic_workload_guardband(module, bench::factory(), stimulus, kCycles, kYears));
      });
      row.dynamic_aged_ps.push_back(dyn->report.aged_cp_ps);

      // The certified invariants: every simulated workload's aged critical
      // path lies inside both proven intervals, below the proven upper bound.
      for (const auto* iv : {&row.proven_ps, &row.proven_narrow_ps}) {
        if (dyn->report.aged_cp_ps < iv->lo - kEps || dyn->report.aged_cp_ps > iv->hi + kEps) {
          std::printf("ERROR: %s seed %d: dynamic aged CP %.4f ps escapes the proven "
                      "interval [%.4f, %.4f] ps\n",
                      row.name.c_str(), seed, dyn->report.aged_cp_ps, iv->lo, iv->hi);
          violated = true;
        }
      }
      if (dyn->report.guardband_ps() > row.proven_ps.hi - row.fresh_cp_ps + kEps) {
        std::printf("ERROR: %s seed %d: dynamic guardband %.4f ps exceeds the proven "
                    "upper bound %.4f ps\n",
                    row.name.c_str(), seed, dyn->report.guardband_ps(),
                    row.proven_ps.hi - row.fresh_cp_ps);
        violated = true;
      }
    }
    rows.push_back(row);

    double dyn_max = 0.0;
    for (double aged : row.dynamic_aged_ps) dyn_max = std::max(dyn_max, aged);
    std::printf("%-8s %5zu inst  proven [%8.1f, %8.1f] ps  dyn<=%8.1f ps  "
                "static gb %7.1f ps  prove %7.2f ms vs sim %8.2f ms (%.0fx)\n",
                row.name.c_str(), row.instances, row.proven_ps.lo, row.proven_ps.hi, dyn_max,
                row.static_gb_ps, row.prove_ms, row.simulate_ms,
                row.prove_ms > 0.0 ? row.simulate_ms / row.prove_ms : 0.0);
    std::fflush(stdout);
  }

  std::printf(
      "\nShape check: the dynamic flow measures ONE workload per seed; the\n"
      "proven interval bounds them ALL. Narrowing the input model tightens\n"
      "the interval without ever excluding an admitted workload.\n");
  bench::print_quarantine_report(bench::factory());
  write_json(json_out, kYears, rows);
  if (violated) {
    std::printf("FAILED: a certified bound was violated (see ERROR lines above)\n");
    return 1;
  }
  return 0;
}
