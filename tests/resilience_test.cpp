/// End-to-end tests of the fault-tolerance layer: the solver's convergence
/// retry ladder, OPC fallback interpolation with rw_fallback/LB006 marking,
/// the factory's run manifest (checkpoint/resume) and quarantine, all driven
/// deterministically by spice::FaultInjector.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "aging/scenario.hpp"
#include "cells/catalog.hpp"
#include "charlib/characterizer.hpp"
#include "charlib/factory.hpp"
#include "charlib/manifest.hpp"
#include "device/ptm45.hpp"
#include "liberty/library.hpp"
#include "liberty/parser.hpp"
#include "liberty/writer.hpp"
#include "lint/linter.hpp"
#include "spice/fault.hpp"
#include "spice/solver.hpp"
#include "util/thread_pool.hpp"

namespace rw {
namespace {

spice::FaultInjector& injector() { return spice::FaultInjector::instance(); }

/// Every test arms the process-wide injector; start and finish inert so a
/// failing test cannot poison its neighbors.
class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override { injector().disarm(); }
  void TearDown() override {
    injector().disarm();
    util::set_shared_thread_count(0);
  }
};

/// The spice_test inverter bench: VDD-sourced CMOS inverter with a rising
/// ramp on the input, 4 fF load on the output.
spice::Circuit inverter_bench(spice::NodeId& in, spice::NodeId& out) {
  const device::Technology& tech = device::ptm45();
  spice::Circuit c;
  const spice::NodeId vdd = c.add_node("vdd");
  in = c.add_node("in");
  out = c.add_node("out");
  c.add_source(vdd, spice::Pwl::dc(tech.vdd_v));
  c.add_source(in, spice::Pwl::ramp(50.0, 40.0, 0.0, tech.vdd_v));
  c.add_mosfet(device::Mosfet(tech.pmos, 0.8), in, out, vdd);
  c.add_mosfet(device::Mosfet(tech.nmos, 0.4), in, out, spice::kGround);
  c.add_capacitor(out, spice::kGround, 4.0);
  return c;
}

TEST_F(ResilienceTest, RetryLadderRecoversFromInjectedFailures) {
  spice::NodeId in = -1;
  spice::NodeId out = -1;
  const spice::Circuit c = inverter_bench(in, out);
  spice::TransientOptions opt;
  opt.t_stop_ps = 500.0;

  // Rungs 0 and 1 are forced to fail; rung 2 (gmin stepping) must run real
  // SPICE and still produce a correct switching waveform.
  injector().arm_fail_nth(1, 2);
  const auto result = spice::simulate_transient(c, opt, {out});
  EXPECT_EQ(injector().injected_failures(), 2u);
  EXPECT_EQ(injector().observed_solves(), 3u);
  EXPECT_NEAR(result.waveform(out).value(0), device::ptm45().vdd_v, 0.05);
  EXPECT_NEAR(result.waveform(out).back_value(), 0.0, 0.05);
}

TEST_F(ResilienceTest, NanResidualInjectionFailsSafelyAndNextRungRecovers) {
  spice::NodeId in = -1;
  spice::NodeId out = -1;
  const spice::Circuit c = inverter_bench(in, out);
  spice::TransientOptions opt;
  opt.t_stop_ps = 500.0;

  // The poisoned attempt must *fail* (never falsely converge on NaN) and the
  // ladder must then recover on a clean rung.
  injector().arm_fail_nth(1, 1, spice::FaultInjector::Action::kNanResidual);
  const auto result = spice::simulate_transient(c, opt, {out});
  EXPECT_EQ(injector().injected_failures(), 1u);
  EXPECT_GE(injector().observed_solves(), 2u);
  EXPECT_NEAR(result.waveform(out).back_value(), 0.0, 0.05);
}

TEST_F(ResilienceTest, ExhaustedLadderThrowsStructuredErrorWithHistory) {
  spice::NodeId in = -1;
  spice::NodeId out = -1;
  const spice::Circuit c = inverter_bench(in, out);
  spice::TransientOptions opt;
  opt.t_stop_ps = 500.0;
  opt.retry.max_retries = 2;

  injector().arm_fail_nth(1, 100);  // every rung fails
  try {
    (void)spice::simulate_transient(c, opt, {out});
    FAIL() << "exhausted ladder did not throw";
  } catch (const spice::SolverError& e) {
    EXPECT_EQ(e.stage(), "transient");
    EXPECT_NE(std::string(e.what()).find("retry ladder exhausted after 3 attempt(s)"),
              std::string::npos);
    ASSERT_EQ(e.attempts().size(), 3u);
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(e.attempts()[static_cast<std::size_t>(k)].attempt, k);
      EXPECT_NE(e.attempts()[static_cast<std::size_t>(k)].outcome.find("fault injection"),
                std::string::npos);
    }
    // Rungs carry distinct effective settings (the relaxation is real).
    EXPECT_NE(e.attempts()[0].settings, e.attempts()[1].settings);
    EXPECT_NE(e.attempts()[1].settings, e.attempts()[2].settings);
  }
  EXPECT_EQ(injector().injected_failures(), 3u);
}

TEST_F(ResilienceTest, RetryPolicyReadsEnvKnob) {
  ASSERT_EQ(setenv("RW_CHAR_MAX_RETRIES", "5", 1), 0);
  EXPECT_EQ(spice::RetryPolicy::from_env().max_retries, 5);
  ASSERT_EQ(setenv("RW_CHAR_MAX_RETRIES", "0", 1), 0);
  EXPECT_EQ(spice::RetryPolicy::from_env().max_retries, 0);
  ASSERT_EQ(setenv("RW_CHAR_MAX_RETRIES", "banana", 1), 0);
  EXPECT_EQ(spice::RetryPolicy::from_env().max_retries, 3);  // unparsable -> default
  ASSERT_EQ(setenv("RW_CHAR_MAX_RETRIES", "5x", 1), 0);
  EXPECT_EQ(spice::RetryPolicy::from_env().max_retries, 3);  // trailing junk -> default
  ASSERT_EQ(unsetenv("RW_CHAR_MAX_RETRIES"), 0);
  EXPECT_EQ(spice::RetryPolicy::from_env().max_retries, 3);
}

TEST_F(ResilienceTest, FallbackPointIsInterpolatedMarkedAndLinted) {
  // One OPC point of the INV rise sweep (slew row 0, load column 1 on the
  // 3x3 grid) fails through the whole ladder; the table entry must be the
  // linear load-axis interpolation of its converged neighbors and the cell
  // must carry the rw_fallback marker that LB006 warns about.
  charlib::CharacterizeOptions o;
  o.grid = charlib::OpcGrid::coarse();
  const auto scenario = aging::AgingScenario::fresh();
  injector().arm_fail_matching("cell=INV_X1 arc=A dir=rise opc=1 scenario=" + scenario.id());
  const auto cell = charlib::characterize_cell(cells::find_cell("INV_X1"), scenario, o);

  ASSERT_EQ(cell.fallbacks.size(), 1u);
  EXPECT_EQ(cell.fallbacks[0], (liberty::FallbackPoint{"A", true, 0, 1}));
  ASSERT_EQ(cell.arcs.size(), 1u);
  const auto& rise = cell.arcs[0].rise;
  const double w =
      (o.grid.loads_ff[1] - o.grid.loads_ff[0]) / (o.grid.loads_ff[2] - o.grid.loads_ff[0]);
  EXPECT_NEAR(rise.delay_ps.at(0, 1),
              rise.delay_ps.at(0, 0) + w * (rise.delay_ps.at(0, 2) - rise.delay_ps.at(0, 0)),
              1e-9);
  EXPECT_GT(rise.delay_ps.at(0, 1), rise.delay_ps.at(0, 0));
  EXPECT_LT(rise.delay_ps.at(0, 1), rise.delay_ps.at(0, 2));

  liberty::Library lib("aged_with_fallback");
  lib.add_cell(cell);
  lint::LintSubject subject;
  subject.library = &lib;
  const auto diags = lint::Linter::library_linter().run(subject);
  bool flagged = false;
  for (const auto& d : diags) {
    if (d.rule_id != lint::rules::kFallbackPoint) continue;
    flagged = true;
    EXPECT_EQ(d.severity, lint::Severity::kWarning);
    EXPECT_NE(d.location.find("INV_X1"), std::string::npos);
    EXPECT_NE(d.message.find("A:rise:(0,1)"), std::string::npos);
  }
  EXPECT_TRUE(flagged);
}

TEST_F(ResilienceTest, FallbackInterpolationIsDeterministicAcrossThreadCounts) {
  charlib::CharacterizeOptions o;
  o.grid = charlib::OpcGrid::coarse();
  const auto scenario = aging::AgingScenario::fresh();
  // Match-mode injection is stateless per solve, so the same points fail for
  // any thread count and the interpolated tables must be bitwise identical.
  injector().arm_fail_matching("cell=INV_X1 arc=A dir=rise opc=1 scenario=" + scenario.id());

  util::set_shared_thread_count(1);
  const auto serial = charlib::characterize_cell(cells::find_cell("INV_X1"), scenario, o);
  util::set_shared_thread_count(4);
  const auto parallel = charlib::characterize_cell(cells::find_cell("INV_X1"), scenario, o);

  ASSERT_EQ(serial.fallbacks, parallel.fallbacks);
  ASSERT_EQ(serial.arcs.size(), parallel.arcs.size());
  for (std::size_t a = 0; a < serial.arcs.size(); ++a) {
    EXPECT_EQ(serial.arcs[a].rise.delay_ps.values(), parallel.arcs[a].rise.delay_ps.values());
    EXPECT_EQ(serial.arcs[a].rise.out_slew_ps.values(),
              parallel.arcs[a].rise.out_slew_ps.values());
    EXPECT_EQ(serial.arcs[a].fall.delay_ps.values(), parallel.arcs[a].fall.delay_ps.values());
    EXPECT_EQ(serial.arcs[a].fall.out_slew_ps.values(),
              parallel.arcs[a].fall.out_slew_ps.values());
  }
}

TEST_F(ResilienceTest, ArcWithNoConvergedPointThrowsTaggedCharError) {
  charlib::CharacterizeOptions o;
  o.grid = charlib::OpcGrid::single(60.0, 4.0);
  injector().arm_fail_matching("cell=INV_X1 arc=A dir=rise");
  try {
    (void)charlib::characterize_cell(cells::find_cell("INV_X1"), aging::AgingScenario::fresh(),
                                     o);
    FAIL() << "fully failed arc did not throw";
  } catch (const charlib::CharError& e) {
    EXPECT_EQ(e.cell(), "INV_X1");
    EXPECT_NE(e.context().find("arc=A dir=rise"), std::string::npos);
    EXPECT_NE(e.context().find("scenario=fresh"), std::string::npos);
    const std::string what = e.what();
    EXPECT_NE(what.find("all 1 OPC points failed to converge"), std::string::npos);
    // The chain bottoms out in the solver's attempt history.
    EXPECT_NE(what.find("retry ladder exhausted"), std::string::npos);
  }
}

TEST_F(ResilienceTest, FactoryQuarantinesPermanentFailureAndMergedSurvives) {
  const std::string dir = std::filesystem::temp_directory_path() / "rw_resilience_cache";
  std::filesystem::remove_all(dir);
  charlib::LibraryFactory::Options opts;
  opts.characterize.grid = charlib::OpcGrid::single(60.0, 4.0);
  opts.cache_dir = dir;
  opts.cell_subset = {"INV_X1", "NAND2_X1"};
  charlib::LibraryFactory factory(opts);

  injector().arm_fail_matching("cell=NAND2_X1");
  const aging::AgingScenario a{0.4, 0.6, 10.0, true};
  const aging::AgingScenario b{1.0, 1.0, 10.0, true};

  EXPECT_THROW((void)factory.cell("NAND2_X1", a), charlib::CharError);

  // A second request fails fast from the quarantine: no SPICE is re-run.
  const std::uint64_t observed_before = injector().observed_solves();
  try {
    (void)factory.cell("NAND2_X1", a);
    FAIL() << "quarantined pair did not fail fast";
  } catch (const charlib::CharError& e) {
    EXPECT_NE(e.context().find("quarantined"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("retry ladder exhausted"), std::string::npos);
  }
  EXPECT_EQ(injector().observed_solves(), observed_before);

  // merged() still builds: the quarantined (cell, corner) variants are
  // simply absent instead of poisoning the whole library.
  const auto merged = factory.merged({a, b});
  EXPECT_EQ(merged.size(), 2u);
  EXPECT_NE(merged.find("INV_X1_0.40_0.60"), nullptr);
  EXPECT_NE(merged.find("INV_X1_1.00_1.00"), nullptr);
  EXPECT_EQ(merged.find("NAND2_X1_0.40_0.60"), nullptr);

  const auto bad = factory.quarantined();
  ASSERT_EQ(bad.size(), 2u);  // NAND2_X1 under both corners
  for (const auto& q : bad) {
    EXPECT_EQ(q.cell, "NAND2_X1");
    EXPECT_NE(q.error.find("retry ladder exhausted"), std::string::npos);
  }

  // The checkpoint on disk records both outcomes with the full error chain.
  const auto manifest = charlib::RunManifest::load(factory.manifest_path());
  const auto* failed = manifest.find(a.id(), "NAND2_X1");
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->status, "failed");
  EXPECT_NE(failed->error.find("retry ladder exhausted"), std::string::npos);
  const auto* done = manifest.find(a.id(), "INV_X1");
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->status, "done");
  EXPECT_TRUE(done->error.empty());
  std::filesystem::remove_all(dir);
}

TEST_F(ResilienceTest, ManifestResumeSkipsSpiceAndHonorsQuarantine) {
  const std::string dir = std::filesystem::temp_directory_path() / "rw_resilience_resume";
  std::filesystem::remove_all(dir);
  charlib::LibraryFactory::Options opts;
  opts.characterize.grid = charlib::OpcGrid::single(60.0, 4.0);
  opts.cache_dir = dir;
  opts.cell_subset = {"INV_X1", "NAND2_X1"};
  const auto fresh = aging::AgingScenario::fresh();

  // Phase 1: one cell succeeds, one fails permanently; then the "campaign"
  // dies (the factory goes away).
  double delay_first = 0.0;
  {
    charlib::LibraryFactory factory(opts);
    injector().arm_fail_matching("cell=NAND2_X1");
    delay_first = factory.cell("INV_X1", fresh).arcs[0].rise.delay_ps.at(0, 0);
    EXPECT_THROW((void)factory.cell("NAND2_X1", fresh), charlib::CharError);
  }

  // Phase 2: resume. Any SPICE solve would now be failed by the injector,
  // so a zero observed-solve count proves both cells are served without
  // re-characterization.
  opts.resume = true;
  charlib::LibraryFactory resumed(opts);
  EXPECT_EQ(resumed.resume(), 2u);  // idempotent reload: done + failed
  injector().arm_fail_matching("cell=");
  EXPECT_NEAR(resumed.cell("INV_X1", fresh).arcs[0].rise.delay_ps.at(0, 0), delay_first, 1e-3);
  try {
    (void)resumed.cell("NAND2_X1", fresh);
    FAIL() << "resumed quarantine did not fail fast";
  } catch (const charlib::CharError& e) {
    EXPECT_EQ(e.cell(), "NAND2_X1");
    EXPECT_NE(e.context().find("quarantined"), std::string::npos);
    // The error chain recorded in phase 1 survives the restart verbatim.
    EXPECT_NE(std::string(e.what()).find("retry ladder exhausted"), std::string::npos);
  }
  EXPECT_EQ(injector().observed_solves(), 0u);
  EXPECT_EQ(injector().injected_failures(), 0u);
  std::filesystem::remove_all(dir);
}

TEST_F(ResilienceTest, ConcurrentFactoryCallersAllReceiveTheFailure) {
  // Satellite of the in-flight dedup table: when the characterizing thread
  // fails, every waiter blocked on the same (scenario, cell) must receive
  // the exception instead of hanging or silently getting an empty cell.
  charlib::LibraryFactory::Options opts;
  opts.characterize.grid = charlib::OpcGrid::single(60.0, 4.0);
  opts.cache_dir.clear();
  opts.cell_subset = {"INV_X1", "NAND2_X1"};
  charlib::LibraryFactory factory(opts);
  injector().arm_fail_matching("cell=NAND2_X1");

  std::vector<std::string> messages(6);
  std::vector<std::thread> threads;
  threads.reserve(messages.size());
  for (std::size_t t = 0; t < messages.size(); ++t) {
    threads.emplace_back([&factory, &messages, t] {
      try {
        (void)factory.cell("NAND2_X1", aging::AgingScenario::fresh());
      } catch (const charlib::CharError& e) {
        messages[t] = e.what();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < messages.size(); ++t) {
    // Waiters rethrow the in-flight job's error; late arrivals fail fast
    // from the quarantine. Both carry the full solver chain.
    EXPECT_NE(messages[t].find("NAND2_X1"), std::string::npos) << t;
    EXPECT_NE(messages[t].find("retry ladder exhausted"), std::string::npos) << t;
  }
}

TEST_F(ResilienceTest, FallbackMarkersSurviveMergedAndResumeBitIdentically) {
  // A cell whose characterization needed OPC fallback interpolation keeps its
  // rw_fallback markers through every downstream representation: the merged
  // λ-indexed library (renamed variant), a Liberty text round-trip of that
  // library, and a factory resume that re-parses the disk cache — all with
  // the exact same marker list. A sibling cell is quarantined in the same
  // campaign to prove the two failure paths stay independent.
  const std::string dir = std::filesystem::temp_directory_path() / "rw_resilience_fallback";
  std::filesystem::remove_all(dir);
  charlib::LibraryFactory::Options opts;
  opts.characterize.grid = charlib::OpcGrid::coarse();
  opts.cache_dir = dir;
  opts.cell_subset = {"INV_X1", "NAND2_X1"};
  const aging::AgingScenario corner{0.4, 0.6, 10.0, true};

  std::vector<liberty::FallbackPoint> expected;
  {
    charlib::LibraryFactory factory(opts);
    injector().arm_fail_matching("cell=INV_X1 arc=A dir=rise opc=1");
    expected = factory.cell("INV_X1", corner).fallbacks;
    ASSERT_EQ(expected.size(), 1u);
    EXPECT_EQ(expected[0], (liberty::FallbackPoint{"A", true, 0, 1}));

    injector().arm_fail_matching("cell=NAND2_X1");
    EXPECT_THROW((void)factory.cell("NAND2_X1", corner), charlib::CharError);

    // merged(): the INV variant is renamed but keeps the markers verbatim;
    // the quarantined NAND2 variant is absent, not poisonous.
    const liberty::Library merged = factory.merged({corner});
    const auto* variant = merged.find("INV_X1_0.40_0.60");
    ASSERT_NE(variant, nullptr);
    EXPECT_EQ(variant->fallbacks, expected);
    EXPECT_EQ(merged.find("NAND2_X1_0.40_0.60"), nullptr);

    // Liberty text round-trip of the merged library: writer emits the
    // rw_fallback complex attribute, parser restores it bit-identically.
    const liberty::Library reparsed = liberty::parse_library(liberty::write_library(merged));
    EXPECT_EQ(reparsed.at("INV_X1_0.40_0.60").fallbacks, expected);
  }

  // Resume from the manifest: the cached INV Liberty file is re-parsed (no
  // SPICE runs — any solve would be failed by the catch-all injection) and
  // the markers survive into both cell() and a fresh merged().
  opts.resume = true;
  charlib::LibraryFactory resumed(opts);
  EXPECT_EQ(resumed.resume(), 2u);  // done INV + failed NAND2
  injector().arm_fail_matching("cell=");
  EXPECT_EQ(resumed.cell("INV_X1", corner).fallbacks, expected);
  const liberty::Library merged_again = resumed.merged({corner});
  const auto* variant = merged_again.find("INV_X1_0.40_0.60");
  ASSERT_NE(variant, nullptr);
  EXPECT_EQ(variant->fallbacks, expected);
  EXPECT_EQ(merged_again.find("NAND2_X1_0.40_0.60"), nullptr);
  EXPECT_EQ(injector().injected_failures(), 0u);
  std::filesystem::remove_all(dir);
}

/// Bytes and nanosecond mtime of a file, to tell "untouched" from "rewritten
/// with the same content".
struct FileSnapshot {
  std::string bytes;
  long long mtime_ns = 0;
  bool operator==(const FileSnapshot&) const = default;
};

FileSnapshot snapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return {};
  return FileSnapshot{ss.str(), st.st_mtim.tv_sec * 1000000000LL + st.st_mtim.tv_nsec};
}

TEST_F(ResilienceTest, LibraryCheckpointsEveryCharacterizedPairAndWarmReadsWriteNothing) {
  const std::string dir = std::filesystem::temp_directory_path() / "rw_resilience_manifest";
  std::filesystem::remove_all(dir);
  charlib::LibraryFactory::Options opts;
  opts.characterize.grid = charlib::OpcGrid::single(60.0, 4.0);
  opts.cache_dir = dir;
  opts.cell_subset = {"INV_X1", "NAND2_X1", "NOR2_X1"};
  const auto fresh = aging::AgingScenario::fresh();
  const auto aged = aging::AgingScenario::worst_case(10);

  // A campaign characterizes K = 3 pairs through one library() batch: the
  // checkpoint lists all of them as done. A quarantine it records for a
  // pair this test never asks for stands in for the rest of its state.
  std::string manifest_path;
  {
    charlib::LibraryFactory campaign(opts);
    (void)campaign.library(fresh);
    manifest_path = campaign.manifest_path();
    const auto manifest = charlib::RunManifest::load(manifest_path);
    ASSERT_EQ(manifest.size(), opts.cell_subset.size());
    for (const auto& name : opts.cell_subset) {
      const auto* e = manifest.find(fresh.id(), name);
      ASSERT_NE(e, nullptr) << name;
      EXPECT_EQ(e->status, "done") << name;
    }
    (void)campaign.library(aged);
    campaign.quarantine_pair("other", "XOR2_X1", "campaign failure");
  }
  ASSERT_EQ(charlib::RunManifest::load(manifest_path).size(), 2 * opts.cell_subset.size() + 1);

  // Backdate the file, so any rewrite shows up in its mtime even when the
  // bytes come out the same.
  const struct timespec past[2] = {{1000000000, 0}, {1000000000, 0}};
  ASSERT_EQ(::utimensat(AT_FDCWD, manifest_path.c_str(), past, 0), 0);
  const FileSnapshot before = snapshot(manifest_path);

  // Warm reads over the populated cache: library(), merged() and cell() are
  // all disk hits, so none of them may touch the campaign's checkpoint (a
  // rewrite from a fresh factory would also drop the campaign's entries).
  // Any SPICE solve would now fail, so none runs unnoticed.
  injector().arm_fail_matching("cell=");
  {
    charlib::LibraryFactory warm(opts);
    (void)warm.library(fresh);
    (void)warm.merged({fresh, aged});
    (void)warm.cell("NOR2_X1", aged);
  }
  EXPECT_EQ(snapshot(manifest_path), before);
  EXPECT_EQ(injector().observed_solves(), 0u);
  std::filesystem::remove_all(dir);
}

TEST_F(ResilienceTest, QuarantineIsOnDiskWhenCellThrows) {
  const std::string dir = std::filesystem::temp_directory_path() / "rw_resilience_quarantine";
  std::filesystem::remove_all(dir);
  charlib::LibraryFactory::Options opts;
  opts.characterize.grid = charlib::OpcGrid::single(60.0, 4.0);
  opts.cache_dir = dir;
  opts.cell_subset = {"NAND2_X1"};
  charlib::LibraryFactory factory(opts);
  const auto fresh = aging::AgingScenario::fresh();

  injector().arm_fail_matching("cell=NAND2_X1");
  try {
    (void)factory.cell("NAND2_X1", fresh);
    FAIL() << "failing cell did not throw";
  } catch (const charlib::CharError&) {
    // The checkpoint is written before the failure reaches the caller, so a
    // process killed right here still resumes with the pair quarantined.
    const auto manifest = charlib::RunManifest::load(factory.manifest_path());
    const auto* e = manifest.find(fresh.id(), "NAND2_X1");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->status, "failed");
    EXPECT_NE(e->error.find("retry ladder exhausted"), std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

TEST_F(ResilienceTest, DisarmedInjectorIsBitwiseNeutralAcrossThreadCounts) {
  // With no faults armed the resilience layer must be invisible: rung 0 runs
  // the caller's exact options, so results stay bitwise identical for any
  // thread count (the acceptance bar for shipping the ladder enabled).
  charlib::CharacterizeOptions o;
  o.grid = charlib::OpcGrid::single(60.0, 4.0);
  const auto scenario = aging::AgingScenario::worst_case(10);

  util::set_shared_thread_count(1);
  const auto serial = charlib::characterize_cell(cells::find_cell("NAND2_X1"), scenario, o);
  util::set_shared_thread_count(4);
  const auto parallel = charlib::characterize_cell(cells::find_cell("NAND2_X1"), scenario, o);

  EXPECT_TRUE(serial.fallbacks.empty());
  EXPECT_TRUE(parallel.fallbacks.empty());
  ASSERT_EQ(serial.arcs.size(), parallel.arcs.size());
  for (std::size_t a = 0; a < serial.arcs.size(); ++a) {
    EXPECT_EQ(serial.arcs[a].rise.delay_ps.values(), parallel.arcs[a].rise.delay_ps.values());
    EXPECT_EQ(serial.arcs[a].fall.delay_ps.values(), parallel.arcs[a].fall.delay_ps.values());
  }
}

}  // namespace
}  // namespace rw
