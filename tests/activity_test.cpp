#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "charlib/factory.hpp"
#include "circuits/benchmarks.hpp"
#include "logicsim/activity.hpp"
#include "logicsim/simulator.hpp"
#include "netlist/builder.hpp"
#include "stress/activity_bounds.hpp"
#include "stress/analyzer.hpp"
#include "stress/interval.hpp"
#include "synth/synthesizer.hpp"
#include "util/rng.hpp"

// Sanitizer instrumentation skews the analysis/simulation cost ratio, so the
// wall-time bar only runs on plain builds; the soundness checks always run.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define RW_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define RW_UNDER_SANITIZER 1
#endif
#endif

namespace rw::stress {
namespace {

charlib::LibraryFactory& factory() {
  static charlib::LibraryFactory f = [] {
    charlib::LibraryFactory::Options o;
    o.characterize.grid = charlib::OpcGrid::coarse();
    o.cell_subset = {"INV_X1", "INV_X2", "NAND2_X1", "NAND2_X2", "NOR2_X1",
                     "AND2_X1", "XOR2_X1", "BUF_X2",  "DFF_X1"};
    return charlib::LibraryFactory(o);
  }();
  return f;
}

const liberty::Library& lib() { return factory().library(aging::AgingScenario::fresh()); }

constexpr std::uint64_t kAnd2Truth = 0b1000;
constexpr std::uint64_t kXor2Truth = 0b0110;

// ---------------------------------------------------------------- transfer --

TEST(ActivityTransfer, BooleanDifferenceProjectsOutTheInput) {
  // ∂(a∧b)/∂a = b; ∂(a⊕b)/∂a ≡ 1.
  EXPECT_EQ(boolean_difference(kAnd2Truth, 2, 0), 0b10u);
  EXPECT_EQ(boolean_difference(kAnd2Truth, 2, 1), 0b10u);
  EXPECT_EQ(boolean_difference(kXor2Truth, 2, 0), 0b11u);
  EXPECT_EQ(boolean_difference(kXor2Truth, 2, 1), 0b11u);
}

TEST(ActivityTransfer, StationaryCapFollowsTheProbabilityInterval) {
  EXPECT_DOUBLE_EQ(stationary_density_cap(Interval::point(0.0)), 0.0);
  EXPECT_DOUBLE_EQ(stationary_density_cap(Interval::point(1.0)), 0.0);
  EXPECT_DOUBLE_EQ(stationary_density_cap(Interval::point(0.5)), 1.0);
  EXPECT_DOUBLE_EQ(stationary_density_cap(Interval{0.0, 0.2}), 0.4);
  EXPECT_DOUBLE_EQ(stationary_density_cap(Interval{0.9, 1.0}), 0.2);
  EXPECT_DOUBLE_EQ(stationary_density_cap(Interval::full()), 1.0);
}

TEST(ActivityTransfer, SingleInputGatesPassDensityThroughExactly) {
  // An inverter neither creates nor destroys toggles — including the clock's
  // 2 transitions/cycle, which is what keeps clock trees pinned.
  const Interval p[1] = {Interval{0.0, 1.0}};
  const Interval d[1] = {Interval{0.2, 0.7}};
  EXPECT_EQ(density_independent(0b01, 1, p, d), (Interval{0.2, 0.7}));
  const Interval dclk[1] = {Interval::point(2.0)};
  EXPECT_EQ(density_independent(0b01, 1, p, dclk), Interval::point(2.0));
  EXPECT_EQ(density_correlated(0b10, 1, p, dclk), Interval::point(2.0));
}

TEST(ActivityTransfer, ConstantInputsCofactorOut) {
  // AND(a, b) with b proven 1 is the identity on a: exact pass-through.
  const Interval p[2] = {Interval{0.2, 0.8}, Interval::point(1.0)};
  const Interval d[2] = {Interval{0.1, 0.4}, Interval::point(0.0)};
  EXPECT_EQ(density_independent(kAnd2Truth, 2, p, d), (Interval{0.1, 0.4}));
  // With b proven 0 the output is constant 0: no toggles at all.
  const Interval p0[2] = {Interval{0.2, 0.8}, Interval::point(0.0)};
  EXPECT_EQ(density_independent(kAnd2Truth, 2, p0, d), Interval::point(0.0));
}

TEST(ActivityTransfer, PairExactTightensTheNajmBoundOnXor) {
  // Independent inputs at p = 0.5, d = 0.5: the Najm bound alone says 1.0
  // (both ∂-probabilities are 1), but the toggles coincide half the time —
  // the pair-exact enumeration proves exactly 0.5.
  const Interval p[2] = {Interval::point(0.5), Interval::point(0.5)};
  const Interval d[2] = {Interval::point(0.5), Interval::point(0.5)};
  const Interval out = density_independent(kXor2Truth, 2, p, d);
  EXPECT_DOUBLE_EQ(out.lo, 0.5);
  EXPECT_DOUBLE_EQ(out.hi, 0.5);
}

TEST(ActivityTransfer, CorrelatedWideningKeepsTheUnionBound) {
  // Reconvergent fanout: each input contributes at most its own toggles,
  // whatever the correlation; the lower bound collapses to 0.
  const Interval p[2] = {Interval{0.0, 1.0}, Interval{0.0, 1.0}};
  const Interval d[2] = {Interval{0.1, 0.2}, Interval{0.2, 0.3}};
  const Interval out = density_correlated(kXor2Truth, 2, p, d);
  EXPECT_DOUBLE_EQ(out.lo, 0.0);
  EXPECT_DOUBLE_EQ(out.hi, 0.5);
}

// ---------------------------------------------------------------- analyzer --

TEST(ActivityAnalyzer, ClockBufferStaysAtTwoTransitionsPerCycle) {
  netlist::Module m("clktree");
  m.set_clock(m.add_net("clk"));
  netlist::NetlistBuilder b(m, lib());
  const auto buffered = b.gate("BUF_X2", {m.clock()});
  const auto inverted = b.gate("INV_X1", {buffered});
  m.mark_output(inverted);

  const ActivityReport r = analyze_activity(m, lib());
  EXPECT_EQ(r.density[static_cast<std::size_t>(buffered)], Interval::point(2.0));
  EXPECT_EQ(r.density[static_cast<std::size_t>(inverted)], Interval::point(2.0));
  EXPECT_NE(r.clock_fed[static_cast<std::size_t>(buffered)], 0);
  EXPECT_NE(r.clock_fed[static_cast<std::size_t>(inverted)], 0);
  // Pin/output summaries carry the clock density too.
  EXPECT_EQ(r.instances[0].output_toggles, Interval::point(2.0));
}

TEST(ActivityAnalyzer, FlopDensityIsTheXorOfDataAndState) {
  // Constant data: after the fixed point Q is constant, so Q never toggles.
  netlist::Module m("pipe");
  const auto a = m.add_net("a");
  m.mark_input(a);
  m.set_clock(m.add_net("clk"));
  netlist::NetlistBuilder b(m, lib());
  const auto q1 = b.flop("DFF_X1", a);
  const auto q2 = b.flop("DFF_X1", q1);
  m.mark_output(q2);

  ActivityOptions constant;
  constant.probability.input_intervals["a"] = Interval::point(1.0);
  const ActivityReport r = analyze_activity(m, lib(), constant);
  EXPECT_EQ(r.density[static_cast<std::size_t>(q1)], Interval::point(0.0));
  EXPECT_EQ(r.density[static_cast<std::size_t>(q2)], Interval::point(0.0));
  // Flop outputs sample once per edge: never above 1 toggle/cycle, and not
  // clock-fed (cycle sampling does observe them).
  const ActivityReport free_run = analyze_activity(m, lib());
  EXPECT_LE(free_run.density[static_cast<std::size_t>(q1)].hi, 1.0);
  EXPECT_EQ(free_run.clock_fed[static_cast<std::size_t>(q1)], 0);
}

TEST(ActivityAnalyzer, DeclaredQuietInputsSilenceTheirCone) {
  netlist::Module m("quiet");
  const auto a = m.add_net("a");
  const auto c = m.add_net("c");
  m.mark_input(a);
  m.mark_input(c);
  netlist::NetlistBuilder b(m, lib());
  const auto n1 = b.gate("NAND2_X1", {a, c});
  const auto y = b.gate("INV_X1", {n1});
  m.mark_output(y);

  ActivityOptions options;
  options.input_densities["a"] = Interval::point(0.0);
  options.input_densities["c"] = Interval::point(0.0);
  const ActivityReport r = analyze_activity(m, lib(), options);
  EXPECT_EQ(r.density[static_cast<std::size_t>(n1)], Interval::point(0.0));
  EXPECT_EQ(r.density[static_cast<std::size_t>(y)], Interval::point(0.0));
  EXPECT_EQ(r.quiet_driven_nets, 2u);
  EXPECT_EQ(r.instances[0].switch_cap_ff.hi, 0.0);
  EXPECT_EQ(r.instances[0].hci.hi, 0.0);
}

// -------------------------------------------------------------- soundness --

/// The acceptance property: on every paper benchmark circuit, for several
/// RNG workloads and two input models, the simulated per-net toggle rate
/// lies inside the proven density interval — and the whole analysis costs
/// less wall time than the simulations it replaces.
TEST(ActivitySoundness, SimulatedTogglesInsideProvenBoundsOnEveryBenchmark) {
  constexpr int kWarmup = 64;    // flop reset transient is outside the
  constexpr int kMeasure = 512;  // steady-state semantics of the bounds
  synth::SynthesisOptions opt;
  opt.multi_start = false;
  using clock = std::chrono::steady_clock;
  std::chrono::duration<double> analysis_total{0.0};
  std::chrono::duration<double> simulation_total{0.0};

  for (const auto& bc : circuits::benchmark_suite()) {
    const netlist::Module m = synth::synthesize(bc.build(), lib(), bc.name, opt).module;

    // Workload-independent run: default model, exact containment.
    const auto t0 = clock::now();
    const ActivityReport bounds = analyze_activity(m, lib());
    analysis_total += clock::now() - t0;
    EXPECT_TRUE(bounds.probability.converged) << bc.name;

    // Narrowed run: per-input Bernoulli(p) declared as p ± 0.06 with the
    // matching iid toggle density 2p(1−p) ± 0.1; containment then holds up
    // to finite-sample noise.
    ActivityOptions narrowed;
    std::vector<double> rate;
    {
      int k = 0;
      for (netlist::NetId pi : m.inputs()) {
        if (pi == m.clock()) continue;
        const double p = 0.15 + 0.7 * ((k * 37) % 100) / 100.0;
        rate.push_back(p);
        narrowed.probability.input_intervals[m.net_name(pi)] =
            Interval{p - 0.06, p + 0.06}.clamped();
        const double dens = 2.0 * p * (1.0 - p);
        narrowed.input_densities[m.net_name(pi)] =
            Interval{dens - 0.1, dens + 0.1}.clamped();
        ++k;
      }
    }
    const ActivityReport narrow_bounds = analyze_activity(m, lib(), narrowed);

    for (unsigned seed = 1; seed <= 3; ++seed) {
      util::Rng rng(seed);
      logicsim::CycleSimulator sim(m, lib());
      logicsim::ActivityCollector activity(m.net_count());
      const auto s0 = clock::now();
      for (int cycle = 0; cycle < kWarmup + kMeasure; ++cycle) {
        int k = 0;
        for (netlist::NetId pi : m.inputs()) {
          if (pi == m.clock()) continue;
          sim.set_input(pi, rng.chance(rate[static_cast<std::size_t>(k)]));
          ++k;
        }
        sim.evaluate();
        if (cycle >= kWarmup) activity.observe(sim);
        sim.clock_edge();
      }
      simulation_total += clock::now() - s0;

      for (std::size_t net = 0; net < bounds.density.size(); ++net) {
        if (bounds.clock_fed[net] != 0) continue;  // intra-cycle toggles
        const auto id = static_cast<netlist::NetId>(net);
        const auto measured = activity.toggle_rate(id);
        ASSERT_TRUE(measured.has_value());
        // Exact containment against the workload-independent bounds.
        const Interval& d = bounds.density[net];
        EXPECT_GE(*measured, d.lo - 1e-9) << bc.name << " seed " << seed << " net "
                                          << m.net_name(id) << " " << d.str();
        EXPECT_LE(*measured, d.hi + 1e-9) << bc.name << " seed " << seed << " net "
                                          << m.net_name(id) << " " << d.str();
        // Containment with sampling slack against the narrowed bounds
        // (independent Bernoulli inputs match the declared model).
        constexpr double kEps = 0.05;
        const Interval& nd = narrow_bounds.density[net];
        EXPECT_GE(*measured, nd.lo - kEps) << bc.name << " seed " << seed << " net "
                                           << m.net_name(id) << " " << nd.str();
        EXPECT_LE(*measured, nd.hi + kEps) << bc.name << " seed " << seed << " net "
                                           << m.net_name(id) << " " << nd.str();
      }
    }
  }
  // The headline claim: proving bounds for all 7 circuits costs less than
  // simulating the three 576-cycle workloads they stand in for.
#if !defined(RW_UNDER_SANITIZER)
  EXPECT_LT(analysis_total.count(), simulation_total.count());
#else
  (void)analysis_total;
  (void)simulation_total;
#endif
}

// ------------------------------------------------------------- zero width --

/// Zero-width input models must collapse to the simulator's exact rates on
/// correlation-free nets: constant inputs freeze the whole circuit, and the
/// analysis proves the point interval [0, 0] the simulator measures.
TEST(ActivityZeroWidth, ConstantInputsCollapseBitwiseOnEveryBenchmark) {
  constexpr int kWarmup = 64;
  constexpr int kMeasure = 128;
  synth::SynthesisOptions opt;
  opt.multi_start = false;
  for (const auto& bc : circuits::benchmark_suite()) {
    const netlist::Module m = synth::synthesize(bc.build(), lib(), bc.name, opt).module;
    ActivityOptions options;
    std::vector<bool> value;
    {
      int k = 0;
      for (netlist::NetId pi : m.inputs()) {
        if (pi == m.clock()) continue;
        const bool v = (k % 3) == 1;
        value.push_back(v);
        options.probability.input_intervals[m.net_name(pi)] =
            Interval::point(v ? 1.0 : 0.0);
        ++k;
      }
    }
    const ActivityReport bounds = analyze_activity(m, lib(), options);

    logicsim::CycleSimulator sim(m, lib());
    logicsim::ActivityCollector activity(m.net_count());
    for (int cycle = 0; cycle < kWarmup + kMeasure; ++cycle) {
      int k = 0;
      for (netlist::NetId pi : m.inputs()) {
        if (pi == m.clock()) continue;
        sim.set_input(pi, value[static_cast<std::size_t>(k)]);
        ++k;
      }
      sim.evaluate();
      if (cycle >= kWarmup) activity.observe(sim);
      sim.clock_edge();
    }
    std::size_t points = 0;
    for (std::size_t net = 0; net < bounds.density.size(); ++net) {
      if (bounds.clock_fed[net] != 0) continue;
      if (!bounds.density[net].is_point()) continue;  // feedback flops stay ⊤
      ++points;
      const auto measured = activity.toggle_rate(static_cast<netlist::NetId>(net));
      ASSERT_TRUE(measured.has_value());
      EXPECT_EQ(*measured, bounds.density[net].lo)
          << bc.name << " net " << m.net_name(static_cast<netlist::NetId>(net));
    }
    // Non-vacuous: constant inputs must freeze a substantial share of the
    // circuit (feedback flops — e.g. register files — soundly stay ⊤, so
    // "all nets" is not achievable on the processor cores).
    EXPECT_GT(points, bounds.density.size() / 4) << bc.name;
  }
}

TEST(ActivityZeroWidth, DeterministicTogglingInputCollapsesBitwise) {
  // a alternates every cycle: p = 0.5, d = 1 exactly. The XOR with a frozen
  // second input reduces to the identity, so the proven interval is the
  // point [1, 1] and the measured rate is exactly 1.0.
  netlist::Module m("osc");
  const auto a = m.add_net("a");
  const auto b = m.add_net("b");
  m.mark_input(a);
  m.mark_input(b);
  netlist::NetlistBuilder builder(m, lib());
  const auto x = builder.gate("XOR2_X1", {a, b});
  const auto y = builder.gate("INV_X1", {x});
  m.mark_output(y);

  ActivityOptions options;
  options.probability.input_intervals["a"] = Interval::point(0.5);
  options.probability.input_intervals["b"] = Interval::point(0.0);
  options.input_densities["a"] = Interval::point(1.0);
  const ActivityReport bounds = analyze_activity(m, lib(), options);
  EXPECT_EQ(bounds.density[static_cast<std::size_t>(x)], Interval::point(1.0));
  EXPECT_EQ(bounds.density[static_cast<std::size_t>(y)], Interval::point(1.0));

  logicsim::CycleSimulator sim(m, lib());
  logicsim::ActivityCollector activity(m.net_count());
  for (int cycle = 0; cycle < 64; ++cycle) {
    sim.set_input(a, (cycle & 1) != 0);
    sim.set_input(b, false);
    sim.evaluate();
    activity.observe(sim);
    sim.clock_edge();
  }
  EXPECT_EQ(*activity.toggle_rate(x), 1.0);
  EXPECT_EQ(*activity.toggle_rate(y), 1.0);
  EXPECT_EQ(*activity.toggle_rate(a), bounds.density[static_cast<std::size_t>(a)].lo);
}

// ------------------------------------------------------------------- CLI ----

/// Runs the CLI; stdout and stderr are merged unless `err` is given, which
/// then receives stderr alone.
std::string run_cli(const std::string& args, int& exit_code, std::string* err = nullptr) {
  // Per process: the `cli`-labelled ctest entry runs these tests alongside
  // the full binary.
  const std::string base = std::string(::testing::TempDir()) + "rwactivity_out." +
                           std::to_string(static_cast<long>(::getpid()));
  const std::string out_path = base + ".txt";
  const std::string err_path = base + ".err";
  const std::string cmd = std::string(RWACTIVITY_BIN) + " " + args + " > " + out_path +
                          (err != nullptr ? " 2> " + err_path : " 2>&1");
  const int status = std::system(cmd.c_str());
  exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());
    return ss.str();
  };
  if (err != nullptr) *err = slurp(err_path);
  return slurp(out_path);
}

TEST(RwactivityCli, ProvenHotspotSurfacesAsAc003Warning) {
  // b frozen at 1 turns the NAND into an inverter of a; a declared toggling
  // every cycle forces n1/n2 to toggle every cycle — an unavoidable hotspot.
  int code = -1;
  const std::string out = run_cli(
      "--format json --input b=1:1 --input a=0.5:0.5 --density a=1:1 --lib " RW_REPO_DIR
      "/examples/fixtures/mini.lib " RW_REPO_DIR "/examples/fixtures/clean.v",
      code);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("\"AC003\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"worst\":\"warning\""), std::string::npos) << out;
}

TEST(RwactivityCli, DeclaredQuietInputsSurfaceAsAc002Info) {
  int code = -1;
  const std::string out = run_cli(
      "--format json --density a=0:0 --density b=0:0 --density c=0:0 --lib " RW_REPO_DIR
      "/examples/fixtures/mini.lib " RW_REPO_DIR "/examples/fixtures/clean.v",
      code);
  EXPECT_EQ(code, 0) << out;  // info-only stays green
  EXPECT_NE(out.find("\"AC002\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"worst\":\"info\""), std::string::npos) << out;
}

TEST(RwactivityCli, UsageErrorsExitSixtyFour) {
  int code = -1;
  run_cli("--density bogus --lib x.lib y.v", code);
  EXPECT_EQ(code, 64);
  run_cli("--clock -1 --lib x.lib y.v", code);
  EXPECT_EQ(code, 64);
  run_cli("--threshold nope --lib x.lib y.v", code);
  EXPECT_EQ(code, 64);
  const std::string fixture = "--lib " RW_REPO_DIR "/examples/fixtures/mini.lib " RW_REPO_DIR
                              "/examples/fixtures/clean.v";
  // Every numeric flag reads its whole value: trailing junk or a comma
  // decimal is a usage error before any work, not a silently used prefix.
  // The analysis and its lint are serial: --threads is an unknown flag.
  for (const char* flag : {"--clock 2x", "--clock 1,5", "--threshold 0.5x", "--threshold 0,5",
                          "--iterations 3x", "--iterations 3,5", "--threads 4"}) {
    const std::string out = run_cli(std::string(flag) + " " + fixture, code);
    EXPECT_EQ(code, 64) << flag << ": " << out;
    EXPECT_EQ(out.find("module "), std::string::npos) << flag << ": " << out;
  }
}

TEST(RwactivityCli, TrailingJunkInAnIntervalIsAUsageError) {
  int code = -1;
  const std::string out = run_cli("--input a=0:1x --lib " RW_REPO_DIR
                                  "/examples/fixtures/mini.lib " RW_REPO_DIR
                                  "/examples/fixtures/clean.v",
                                  code);
  EXPECT_EQ(code, 64) << out;
}

/// A one-gate netlist whose used net n1 has no driver: NL002 keeps the lint's
/// analysis from running, yet the analysis itself treats n1 as a free input.
std::string undriven_netlist(const char* tool) {
  const std::string path = std::string(::testing::TempDir()) + tool + "_undriven." +
                           std::to_string(static_cast<long>(::getpid())) + ".v";
  std::ofstream(path) << "module undriven (input a, output y);\n"
                         "  wire n1;\n"
                         "  NAND2_X1 u1 (.A(a), .B(n1), .Z(y));\n"
                         "endmodule\n";
  return path;
}

TEST(RwactivityCli, AnalysisRefusalPrintsTheDiagnosticsAndExitsTwo) {
  int code = -1;
  std::string err;
  const std::string out = run_cli("--lib " RW_REPO_DIR "/examples/fixtures/mini.lib " RW_REPO_DIR
                                  "/tests/fixtures/broken.v",
                                  code, &err);
  EXPECT_EQ(code, 2);
  EXPECT_EQ(out,
            "error[NL003] broken:net m: driven by multiple instances (u3 and u4) (fix: keep "
            "exactly one driver per net)\n"
            "error[NL001] broken:inst u1: combinational cycle: u1 -> u2 -> u1 (fix: break the "
            "loop with a flop or restructure the logic)\n"
            "error[AN001] broken:inst u5: duty-cycle index (1.20, 0.50) is outside [0,1]; a "
            "stress duty cycle is a probability (fix: fix the duty-cycle extraction (or the "
            "annotation step's quantization))\n");
  EXPECT_EQ(err, "rwactivity: stress: module 'broken' has multi-driven nets; lint it first\n");
}

TEST(RwactivityCli, UnanalyzableLintStillPrintsTheReport) {
  const std::string netlist = undriven_netlist("rwactivity");
  int code = -1;
  std::string err;
  const std::string out =
      run_cli("--lib " RW_REPO_DIR "/examples/fixtures/mini.lib " + netlist, code, &err);
  std::remove(netlist.c_str());
  EXPECT_EQ(code, 2);
  EXPECT_EQ(out,
            "module undriven: 3 nets, 1 instances\n"
            "fixed point: 1 iteration(s), converged; 0 widened net(s), 0 proven-quiet driven "
            "net(s)\n"
            "net a: prob [0.0000, 1.0000], density [0.0000, 1.0000]\n"
            "net y: prob [0.0000, 1.0000], density [0.0000, 1.0000]\n"
            "net n1: prob [0.0000, 1.0000], density [0.0000, 1.0000]\n"
            "inst u1 (NAND2_X1): toggles [0.0000, 1.0000], switch_cap_ff [0.000000, 0.000000], "
            "hci [0.000000, 1.000000]\n"
            "error[NL002] undriven:net n1: used net has no driver and is not a primary input "
            "(fix: drive the net or mark it as an input)\n"
            "rwactivity: 1 error(s), 0 warning(s), 0 info\n");
  EXPECT_EQ(err, "");
}

}  // namespace
}  // namespace rw::stress
