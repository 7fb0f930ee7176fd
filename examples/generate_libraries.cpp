/// Regenerates the paper's published artifact: the degradation-aware cell
/// libraries in Liberty text form — one library per (λp, λn) corner on the
/// 0.1-step grid (121 for the full grid) plus the merged "complete" library
/// with λ-indexed cell names (Section 4.1 of the paper).
///
/// Usage: example_generate_libraries [--threads N] [out_dir] [years] [lambda_step]
///   out_dir      output directory            (default: ./libs)
///   years        lifetime                    (default: 10)
///   lambda_step  λ grid step; 0.5 -> 9 corners, 0.1 -> 121 (default: 0.5)
///
/// The full 121-corner grid takes on the order of an hour of transient
/// simulation on one core the first time (cached afterwards, and divided by
/// the thread count — characterization runs on all cores unless --threads/
/// $RW_THREADS says otherwise); the default coarse step finishes in minutes.

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "charlib/factory.hpp"
#include "flow/libgen.hpp"
#include "liberty/merge.hpp"
#include "liberty/writer.hpp"
#include "util/number.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace rw;
  util::consume_thread_flag(argc, argv);
  const std::string out_dir = argc > 1 ? argv[1] : "libs";
  double years = 10.0;
  double step = 0.5;
  if ((argc > 2 && !util::parse_number(argv[2], years)) ||
      (argc > 3 && !util::parse_number(argv[3], step)) || years <= 0.0 || step <= 0.0 ||
      step > 1.0) {
    std::fprintf(stderr, "usage: %s [out_dir] [years>0] [0<lambda_step<=1]\n", argv[0]);
    return 1;
  }
  std::filesystem::create_directories(out_dir);

  charlib::LibraryFactory factory;
  const auto grid = flow::full_lambda_grid(years, step);
  std::printf("generating %zu degradation-aware libraries (+1 fresh, +1 merged) into %s/\n",
              grid.size(), out_dir.c_str());

  const auto& fresh = factory.library(aging::AgingScenario::fresh());
  liberty::write_library_file(fresh, out_dir + "/reliaware_fresh.lib");

  std::vector<liberty::ScenarioLibrary> parts;
  parts.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& scenario = grid[i];
    const liberty::Library& lib = factory.library(scenario);
    liberty::write_library_file(lib, out_dir + "/reliaware_" + scenario.id() + ".lib");
    parts.push_back({scenario, &lib});
    std::printf("  [%zu/%zu] %s (%zu cells)\n", i + 1, grid.size(), scenario.id().c_str(),
                lib.size());
    std::fflush(stdout);
  }

  const liberty::Library merged = liberty::merge_libraries(parts);
  liberty::write_library_file(merged, out_dir + "/reliaware_complete.lib");
  std::printf("merged complete library: %zu lambda-indexed cells -> %s/reliaware_complete.lib\n",
              merged.size(), out_dir.c_str());
  return 0;
}
