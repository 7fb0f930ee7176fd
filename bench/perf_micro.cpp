/// Performance micro-benchmarks (google-benchmark) for the heavy engines:
/// the transient circuit solver (cell characterization cost), full-design
/// STA, the netlist pre-flight lint and its activity analysis, the
/// technology mapper, the Liberty reader and the gate-level simulators.
/// These back the design choices called out in DESIGN.md (smooth device
/// model, lazy characterization, batched sizing, parallel characterization,
/// the compiled cycle simulator, one shared analysis per lint run).
///
/// Besides the google-benchmark suite, the binary runs a characterization
/// throughput study (single cell × 49 OPCs and a full library, at 1 thread
/// vs all threads) and writes the machine-readable baseline BENCH_perf.json
/// so the perf trajectory is tracked across PRs.
///
/// Flags (consumed before google-benchmark's own):
///   --threads N      width of the N-thread measurements (default: all cores)
///   --json-only      skip the google-benchmark suite, emit BENCH_perf.json
///   --json-out=PATH  baseline path                    (default: BENCH_perf.json)
///   --json-cells=K   library study uses the first K catalog cells (0 = all)

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "charlib/adaptive.hpp"
#include "charlib/characterizer.hpp"
#include "charlib/factory.hpp"
#include "spice/stats.hpp"
#include "cells/catalog.hpp"
#include "circuits/benchmarks.hpp"
#include "liberty/parser.hpp"
#include "liberty/writer.hpp"
#include "lint/linter.hpp"
#include "logicsim/simulator.hpp"
#include "logicsim/timingsim.hpp"
#include "netlist/sdf.hpp"
#include "sta/analysis.hpp"
#include "stress/activity_bounds.hpp"
#include "synth/decompose.hpp"
#include "synth/synthesizer.hpp"
#include "synth/mapper.hpp"
#include "util/atomic_file.hpp"
#include "util/number.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace rw;

charlib::LibraryFactory& factory() {
  static charlib::LibraryFactory f{};
  return f;
}
const liberty::Library& fresh() { return factory().library(aging::AgingScenario::fresh()); }

const netlist::Module& dsp_module() {
  static const netlist::Module m = [] {
    synth::SynthesisOptions opt;
    opt.multi_start = false;
    return synth::synthesize(circuits::make_dsp(), fresh(), "dsp", opt).module;
  }();
  return m;
}

void BM_TransientInverter(benchmark::State& state) {
  // One full characterization transient (ramp in, measure out).
  charlib::CharacterizeOptions opts;
  opts.grid = charlib::OpcGrid::single(60.0, 4.0);
  const auto& spec = cells::find_cell("INV_X1");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        charlib::characterize_cell(spec, aging::AgingScenario::fresh(), opts));
  }
}
BENCHMARK(BM_TransientInverter)->Unit(benchmark::kMillisecond);

// Single cell × 49 OPCs at a given pool width (0 = all hardware threads).
// The per-OPC transients fan out over the shared pool inside the
// characterizer; the tables are bitwise identical across widths.
void BM_CharacterizeNand2FullGrid(benchmark::State& state) {
  util::set_shared_thread_count(static_cast<std::size_t>(state.range(0)));
  charlib::CharacterizeOptions opts;  // 7x7 paper grid
  const auto& spec = cells::find_cell("NAND2_X1");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        charlib::characterize_cell(spec, aging::AgingScenario::fresh(), opts));
  }
  util::set_shared_thread_count(0);
}
BENCHMARK(BM_CharacterizeNand2FullGrid)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// Library characterization throughput (a representative 8-cell subset × 49
// OPCs) at a given pool width; the factory fans whole cells out in parallel.
void BM_CharacterizeLibrarySubset(benchmark::State& state) {
  util::set_shared_thread_count(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    charlib::LibraryFactory::Options opts;  // 7x7 paper grid, no disk cache
    opts.cache_dir.clear();
    opts.cell_subset = {"INV_X1", "NAND2_X1", "NOR2_X1", "XOR2_X1",
                        "AOI21_X1", "OAI21_X1", "MUX2_X1", "DFF_X1"};
    charlib::LibraryFactory f(opts);
    benchmark::DoNotOptimize(f.library(aging::AgingScenario::fresh()));
  }
  util::set_shared_thread_count(0);
}
BENCHMARK(BM_CharacterizeLibrarySubset)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_StaDsp(benchmark::State& state) {
  const auto& m = dsp_module();
  for (auto _ : state) {
    const sta::Sta sta(m, fresh());
    benchmark::DoNotOptimize(sta.critical_delay_ps());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.instances().size()));
}
BENCHMARK(BM_StaDsp)->Unit(benchmark::kMillisecond);

void BM_NetlistPreflight(benchmark::State& state) {
  // What every flow runs before timing: the netlist, annotation, stress and
  // activity rules over the design against the fresh library.
  const auto& m = dsp_module();
  const lint::Linter linter = lint::Linter::netlist_linter();
  lint::LintSubject subject;
  subject.module = &m;
  subject.library = &fresh();
  for (auto _ : state) benchmark::DoNotOptimize(linter.run(subject));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.instances().size()));
}
BENCHMARK(BM_NetlistPreflight)->Unit(benchmark::kMillisecond);

void BM_AnalyzeActivity(benchmark::State& state) {
  const auto& m = dsp_module();
  for (auto _ : state) benchmark::DoNotOptimize(stress::analyze_activity(m, fresh()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.instances().size()));
}
BENCHMARK(BM_AnalyzeActivity)->Unit(benchmark::kMillisecond);

void BM_MapDsp(benchmark::State& state) {
  const synth::SubjectGraph graph = synth::decompose(circuits::make_dsp());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        synth::map_to_library(graph, fresh(), synth::MapperOptions{}, "dsp"));
  }
}
BENCHMARK(BM_MapDsp)->Unit(benchmark::kMillisecond);

void BM_CycleSimDsp(benchmark::State& state) {
  const auto& m = dsp_module();
  logicsim::CycleSimulator sim(m, fresh());
  util::Rng rng(1);
  for (auto _ : state) {
    for (netlist::NetId pi : m.inputs()) {
      if (pi != m.clock()) sim.set_input(pi, rng.chance(0.5));
    }
    sim.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.instances().size()));
}
BENCHMARK(BM_CycleSimDsp);

void BM_ParseLibrary(benchmark::State& state) {
  const std::string text = liberty::write_library(fresh());
  for (auto _ : state) {
    benchmark::DoNotOptimize(liberty::parse_library(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ParseLibrary)->Unit(benchmark::kMillisecond);

void BM_TimingSimDspCycle(benchmark::State& state) {
  const auto& m = dsp_module();
  const sta::Sta sta(m, fresh());
  const auto ann = netlist::compute_delay_annotation(sta);
  logicsim::TimingSimulator sim(m, fresh(), ann, sta.critical_delay_ps());
  util::Rng rng(2);
  for (auto _ : state) {
    for (netlist::NetId pi : m.inputs()) {
      if (pi != m.clock()) sim.set_input(pi, rng.chance(0.5));
    }
    sim.run_cycle();
  }
}
BENCHMARK(BM_TimingSimDspCycle)->Unit(benchmark::kMicrosecond);

void BM_NldmLookup(benchmark::State& state) {
  const auto& table = fresh().at("NAND2_X1").arcs[0].rise.delay_ps;
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(rng.uniform(5.0, 947.0), rng.uniform(0.5, 20.0)));
  }
}
BENCHMARK(BM_NldmLookup);

// ---------------------------------------------------------------------------
// Characterization throughput study -> BENCH_perf.json
// ---------------------------------------------------------------------------

double wall_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double char_cell_ms(std::size_t threads) {
  util::set_shared_thread_count(threads);
  const auto& spec = cells::find_cell("NAND2_X1");
  const charlib::CharacterizeOptions opts;  // 7x7 paper grid = 49 OPCs
  double best = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    const double ms = wall_ms([&] {
      benchmark::DoNotOptimize(
          charlib::characterize_cell(spec, aging::AgingScenario::fresh(), opts));
    });
    best = rep == 0 ? ms : std::min(best, ms);
  }
  return best;
}

double char_library_ms(std::size_t threads, std::size_t max_cells) {
  util::set_shared_thread_count(threads);
  charlib::LibraryFactory::Options opts;  // 7x7 paper grid
  opts.cache_dir.clear();                 // measure characterization, not the disk cache
  if (max_cells > 0) {
    for (const auto& spec : cells::catalog()) {
      if (opts.cell_subset.size() >= max_cells) break;
      opts.cell_subset.push_back(spec.name);
    }
  }
  charlib::LibraryFactory f(opts);
  return wall_ms([&] { benchmark::DoNotOptimize(f.library(aging::AgingScenario::fresh())); });
}

void write_perf_json(const std::string& path, std::size_t n_threads, std::size_t json_cells) {
  struct Row {
    const char* name;
    double ms_1t;
    double ms_nt;
  };
  std::fprintf(stderr, "perf baseline: characterization throughput at 1 vs %zu threads...\n",
               n_threads);
  // Solver/adaptive counters are scoped to the measured studies, making the
  // perf numbers attributable (how many Newton iterations ran, how often the
  // warm start hit, how many solves interpolation avoided entirely).
  spice::reset_solver_counters();
  charlib::reset_adaptive_counters();
  const Row rows[] = {
      {"char_cell_49opc", char_cell_ms(1), char_cell_ms(n_threads)},
      {"char_library", char_library_ms(1, json_cells), char_library_ms(n_threads, json_cells)},
  };
  const spice::SolverCounters sc = spice::solver_counters();
  const charlib::AdaptiveCounters ac = charlib::adaptive_counters();
  util::set_shared_thread_count(0);

  const auto appendf = [](std::string& s, const char* fmt, auto... args) {
    char buf[512];
    std::snprintf(buf, sizeof buf, fmt, args...);
    s += buf;
  };
  std::string json;
  appendf(json, "{\n  \"threads\": %zu,\n", n_threads);
  const std::size_t library_cells =
      json_cells > 0 ? std::min(json_cells, cells::catalog().size()) : cells::catalog().size();
  appendf(json, "  \"library_cells\": %zu,\n", library_cells);
  appendf(json, "  \"benchmarks\": {\n");
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const Row& r = rows[i];
    appendf(json,
            "    \"%s\": {\"wall_ms_1t\": %.3f, \"wall_ms_nt\": %.3f, "
            "\"speedup\": %.3f}%s\n",
            r.name, r.ms_1t, r.ms_nt, r.ms_nt > 0.0 ? r.ms_1t / r.ms_nt : 0.0,
            i + 1 < std::size(rows) ? "," : "");
  }
  appendf(json, "  },\n");
  // Pre-optimization reference (dense per-iteration FD-Jacobian solves,
  // nested per-cell parallel_for), measured on the same 59-cell catalog:
  // the denominator for this PR's >=5x char_library acceptance gate.
  appendf(json,
          "  \"before_sparse_workspace\": {\n"
          "    \"char_cell_49opc_wall_ms_1t\": 105.0,\n"
          "    \"char_library_wall_ms_1t\": 33300.0,\n"
          "    \"char_library_speedup_nt\": 0.994\n"
          "  },\n");
  const std::uint64_t warm_total = sc.warm_start_hits + sc.warm_start_misses;
  appendf(json, "  \"solver_counters\": {\n");
  appendf(json, "    \"newton_iterations\": %llu,\n",
          static_cast<unsigned long long>(sc.newton_iterations));
  appendf(json, "    \"factorizations\": %llu,\n",
          static_cast<unsigned long long>(sc.factorizations));
  appendf(json, "    \"dense_fallbacks\": %llu,\n",
          static_cast<unsigned long long>(sc.dense_fallbacks));
  appendf(json, "    \"dc_solves\": %llu,\n", static_cast<unsigned long long>(sc.dc_solves));
  appendf(json, "    \"transient_attempts\": %llu,\n",
          static_cast<unsigned long long>(sc.transient_attempts));
  appendf(json, "    \"warm_start_hits\": %llu,\n",
          static_cast<unsigned long long>(sc.warm_start_hits));
  appendf(json, "    \"warm_start_misses\": %llu,\n",
          static_cast<unsigned long long>(sc.warm_start_misses));
  appendf(json, "    \"warm_start_hit_rate\": %.4f,\n",
          warm_total > 0 ? static_cast<double>(sc.warm_start_hits) / warm_total : 0.0);
  appendf(json, "    \"workspace_builds\": %llu,\n",
          static_cast<unsigned long long>(sc.workspace_builds));
  appendf(json, "    \"workspace_reuses\": %llu,\n",
          static_cast<unsigned long long>(sc.workspace_reuses));
  appendf(json, "    \"cells_interpolated\": %llu,\n",
          static_cast<unsigned long long>(ac.cells_interpolated));
  appendf(json, "    \"corners_refined\": %llu,\n",
          static_cast<unsigned long long>(ac.corners_refined));
  appendf(json, "    \"solves_avoided_by_interp\": %llu\n",
          static_cast<unsigned long long>(ac.solves_avoided_by_interp));
  appendf(json, "  }\n}\n");
  if (!util::write_file_atomic_nothrow(path, json)) {
    std::fprintf(stderr, "perf baseline: cannot write %s\n", path.c_str());
    return;
  }
  for (const Row& r : rows) {
    std::fprintf(stderr, "  %-18s 1t %9.1f ms   %zut %9.1f ms   speedup %.2fx\n", r.name,
                 r.ms_1t, n_threads, r.ms_nt, r.ms_nt > 0.0 ? r.ms_1t / r.ms_nt : 0.0);
  }
  std::fprintf(stderr, "perf baseline written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t requested = util::consume_thread_flag(argc, argv);
  const std::size_t n_threads = requested > 0 ? requested : util::default_thread_count();

  bool json_only = false;
  std::string json_out = "BENCH_perf.json";
  std::size_t json_cells = 0;  // 0 = full catalog
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-only") == 0) {
      json_only = true;
    } else if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      json_out = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--json-cells=", 13) == 0) {
      if (!util::parse_number(argv[i] + 13, json_cells)) {
        util::usage_exit(argv[0], "--json-cells wants a count");
      }
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argv[out_argc] = nullptr;
  argc = out_argc;

  if (!json_only) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  write_perf_json(json_out, n_threads, json_cells);
  return 0;
}
