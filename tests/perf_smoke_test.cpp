#include <gtest/gtest.h>

#include "cells/catalog.hpp"
#include "charlib/characterizer.hpp"
#include "spice/stats.hpp"
#include "util/thread_pool.hpp"

namespace rw::charlib {
namespace {

CharacterizeOptions coarse_options() {
  CharacterizeOptions o;
  o.grid = OpcGrid::coarse();
  return o;
}

TEST(PerfSmoke, WorkspaceIsReusedAcrossSolves) {
  // The structure-reusing solver: one symbolic analysis (ordering + fill)
  // per circuit topology, then in-place refactorization for every Newton
  // iteration of every timestep of every grid point. A 3×3 grid of INV_X1
  // runs thousands of solves over a handful of topologies.
  //
  // The workspace cache is per thread, so every pool thread that picks up a
  // task pays one build per topology: on a 4-core host INV_X1's 38 solver
  // setups split into 4 builds + 34 reuses, and how many threads take part
  // depends on scheduling. One thread makes the ratio a property of the
  // cache alone.
  struct OneThread {
    OneThread() { util::set_shared_thread_count(1); }
    ~OneThread() { util::set_shared_thread_count(0); }
    OneThread(const OneThread&) = delete;
    OneThread& operator=(const OneThread&) = delete;
  };
  liberty::Cell cell;
  {
    const OneThread pinned;
    spice::reset_solver_counters();
    cell = characterize_cell(cells::find_cell("INV_X1"), aging::AgingScenario::worst_case(10),
                             coarse_options());
  }
  ASSERT_FALSE(cell.arcs.empty());

  const spice::SolverCounters c = spice::solver_counters();
  EXPECT_GT(c.factorizations, 0u);
  EXPECT_GT(c.workspace_builds, 0u);
  EXPECT_GT(c.workspace_reuses, 10u * c.workspace_builds)
      << "workspace cache is not being reused";
  // Static pivoting holds on healthy cell matrices; the dense fallback is
  // for pivot collapse only.
  EXPECT_EQ(c.dense_fallbacks, 0u);
}

TEST(PerfSmoke, WarmStartSeedsEveryGridPoint) {
  // Every transient on an arc is seeded from the arc's shared DC operating
  // point; the seed polish should succeed for all of them (hits, no misses)
  // on a healthy cell.
  spice::reset_solver_counters();
  (void)characterize_cell(cells::find_cell("NAND2_X1"), aging::AgingScenario::worst_case(10),
                          coarse_options());
  const spice::SolverCounters c = spice::solver_counters();
  EXPECT_GT(c.warm_start_hits, 0u);
  EXPECT_EQ(c.warm_start_misses, 0u);
}

TEST(PerfSmoke, TaskQueueIsOrderAndThreadIndependent) {
  // The flattened scheduler may run a cell's (arc × OPC) tasks in any order
  // on any thread; the assembled cell must be bitwise identical. Run the
  // queue backwards serially and compare against the pooled path.
  const auto& spec = cells::find_cell("NOR2_X1");
  const auto scenario = aging::AgingScenario::worst_case(10);
  const CharacterizeOptions options = coarse_options();

  CellCharJob backwards(spec, scenario, options);
  for (std::size_t t = backwards.task_count(); t-- > 0;) backwards.run_task(t);
  const liberty::Cell reversed = backwards.finish();

  util::set_shared_thread_count(4);
  const liberty::Cell pooled = characterize_cell(spec, scenario, options);
  util::set_shared_thread_count(0);

  ASSERT_EQ(reversed.arcs.size(), pooled.arcs.size());
  for (std::size_t i = 0; i < reversed.arcs.size(); ++i) {
    EXPECT_EQ(reversed.arcs[i].rise.delay_ps.values(), pooled.arcs[i].rise.delay_ps.values());
    EXPECT_EQ(reversed.arcs[i].fall.delay_ps.values(), pooled.arcs[i].fall.delay_ps.values());
    EXPECT_EQ(reversed.arcs[i].rise.out_slew_ps.values(),
              pooled.arcs[i].rise.out_slew_ps.values());
    EXPECT_EQ(reversed.arcs[i].fall.out_slew_ps.values(),
              pooled.arcs[i].fall.out_slew_ps.values());
  }
}

}  // namespace
}  // namespace rw::charlib
