/// \file harness.cpp
/// Benchmark harness for the paper's flows. One binary, three workloads:
///
///   cold_char   SPICE characterization (Fig. 4(a)) of the circuit's cells,
///               one (cell, λ-lattice corner) per operation, into an empty
///               disk cache.
///   warm_flows  the guardband flows of Fig. 4(b) plus the certified one —
///               static, dynamic (workload simulation) and proven (interval
///               STA) — on a synthesized paper circuit whose libraries are
///               already in the disk cache.
///   served      closed-loop clients asking a real rwserved daemon for the
///               cells a dynamic round characterizes, already on disk.
///
/// `perfbench --prepare --work DIR` fills DIR/cache once per build: the
/// fresh library, the synthesized circuit, and every λ-lattice corner its
/// cells can be annotated or bracketed at, so the warm workloads never run
/// SPICE. A measured run is
///   perfbench --work DIR --rwserved PATH --workload W --seed N --seconds S --trace 0|1
/// and prints one JSON object as its last stdout line: end-to-end metrics
/// with --trace 0, per-layer metrics with --trace 1.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "aging/scenario.hpp"
#include "charlib/factory.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/cancel.hpp"
#include "flow/guardband_flow.hpp"
#include "flow/prove_flow.hpp"
#include "liberty/writer.hpp"
#include "netlist/verilog.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "spice/stats.hpp"
#include "synth/synthesizer.hpp"
#include "util/atomic_file.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kYears = 10.0;
/// The circuit every flow runs on: the paper's 5-stage pipelined RISC core
/// (about 2k instances, so a warm round of all three flows takes well under
/// a second and a run holds dozens of rounds).
constexpr const char* kCircuit = "RISC-5P";
/// In-process characterization/analysis threads. Fixed so a run's numbers
/// do not depend on the host's core count; spreading each operation over
/// several cores also averages out one core's speed changes on a shared host.
constexpr std::size_t kThreads = 4;
/// Dynamic-flow simulation length (cycles) per warm round.
constexpr int kCycles = 500;
/// served: concurrent closed-loop clients, as in the multi-client rows of
/// the repository's serve load bench (bench/serve_load.cpp).
constexpr int kClients = 4;
/// Set-up samples per run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 21;
/// tail_latency_ms percentile per workload: fixed, so two commits compare
/// the same percentile, and chosen so a 30 s run leaves at least ten
/// samples beyond it (a few hundred cold cells, a few dozen warm rounds,
/// tens of thousands of served requests).
constexpr double kColdTailP = 0.95;
constexpr double kWarmTailP = 0.75;
constexpr double kServedTailP = 0.99;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// The 11 x 11 λ lattice the dynamic flow annotates on and the proven flow
/// brackets with (step 0.1, as in the paper).
std::vector<rw::aging::AgingScenario> lattice() {
  std::vector<rw::aging::AgingScenario> out;
  for (int p = 0; p <= 10; ++p) {
    for (int n = 0; n <= 10; ++n) {
      out.push_back(rw::aging::AgingScenario{p / 10.0, n / 10.0, kYears, true});
    }
  }
  return out;
}

/// `read_only`: serve from the disk cache only (a missing pair throws
/// instead of being characterized) and leave the cache's manifest alone.
rw::charlib::LibraryFactory::Options factory_options(const std::string& cache_dir,
                                                     std::vector<std::string> cells,
                                                     bool read_only = false) {
  rw::charlib::LibraryFactory::Options o;
  o.cache_dir = cache_dir;
  o.cell_subset = std::move(cells);
  o.disk_only = read_only;
  o.use_manifest = !read_only;
  return o;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Single-cell library text, exactly as rwserved answers op=characterize.
std::string cell_library_text(const rw::liberty::Cell& cell,
                              const rw::aging::AgingScenario& scenario) {
  rw::liberty::Library lib("reliaware_" + scenario.id());
  lib.add_cell(cell);
  return rw::liberty::write_library(lib);
}

/// Random primary inputs every cycle (the clock excepted).
rw::flow::Stimulus random_stimulus(const rw::netlist::Module& module, rw::util::Rng& rng) {
  return [&module, &rng](rw::logicsim::CycleSimulator& sim, int) {
    for (rw::netlist::NetId pi : module.inputs()) {
      if (pi != module.clock()) sim.set_input(pi, rng.chance(0.5));
    }
  };
}

// --- result reporting --------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<double> latencies_ms;  ///< one per successful operation
  double tail_p = 0.99;              ///< tail_latency_ms percentile
  double measured_s = 0.0;           ///< wall time of the measured window
  std::vector<double> setup_s;       ///< one per set-up sample
  std::map<std::string, double> layers;  ///< per-layer metrics (trace runs)

  void fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: incorrect: %s\n", why.c_str());
    correct = false;
  }
};

/// Every per-layer metric, with its unit, as a median per operation.
/// Workloads that do not exercise a layer report 0 for it.
///   spice_*            solver work per cold cell (cold_char)
///   library_load_ms    fresh library read from the disk cache (warm_flows)
///   flow_*_ms          each guardband flow of a warm round (warm_flows)
///   serve_assembly_ms  a request the daemon answers from disk: read, parse,
///                      serialize; later requests for the key are memoized
///   serve_ping_ms      op=ping round trip: socket + framing + event loop
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"spice_newton_iterations", "count"}, {"spice_factorizations", "count"},
      {"spice_transients", "count"},        {"library_load_ms", "ms"},
      {"flow_static_ms", "ms"},             {"flow_dynamic_ms", "ms"},
      {"flow_proven_ms", "ms"},             {"serve_assembly_ms", "ms"},
      {"serve_ping_ms", "ms"},
  };
  return m;
}

void print_outcome(const Outcome& o, bool trace) {
  std::vector<Metric> metrics;
  if (trace) {
    for (const auto& [name, unit] : layer_metrics()) {
      const auto it = o.layers.find(name);
      metrics.push_back({name, it == o.layers.end() ? 0.0 : it->second, unit});
    }
  } else {
    metrics.push_back({"latency_ms", median(o.latencies_ms), "ms"});
    metrics.push_back({"tail_latency_ms", percentile(o.latencies_ms, o.tail_p), "ms"});
    metrics.push_back({"throughput_per_s",
                       o.measured_s > 0.0 ? static_cast<double>(o.latencies_ms.size()) / o.measured_s
                                          : 0.0,
                       "1/s"});
    metrics.push_back({"setup_s", median(o.setup_s), "s"});
  }
  std::fprintf(stderr, "perfbench: %zu operations timed, tail at p%g, %zu set-up samples\n",
               o.latencies_ms.size(), 100.0 * o.tail_p, o.setup_s.size());
  std::string json = "{\"correct\": ";
  json += o.correct && o.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(o.attempted);
  json += ", \"failed\": " + std::to_string(o.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- prepared state ----------------------------------------------------------

constexpr const char* kCacheDir = "cache";
constexpr const char* kNetlistFile = "circuit.v";
constexpr const char* kCellsFile = "cells.txt";
constexpr const char* kPreparedFile = "prepared";

std::vector<std::string> used_cells(const rw::netlist::Module& module) {
  std::set<std::string> names;
  for (const auto& inst : module.instances()) names.insert(inst.cell);
  return {names.begin(), names.end()};
}

/// Characterizes everything the warm workloads read. Idempotent: a rerun
/// finds every pair on disk.
int prepare() {
  const auto t0 = Clock::now();
  rw::charlib::LibraryFactory full(factory_options(kCacheDir, {}));
  const rw::liberty::Library& fresh = full.library(rw::aging::AgingScenario::fresh());
  const rw::circuits::BenchmarkCircuit* circuit = nullptr;
  for (const auto& bc : rw::circuits::benchmark_suite()) {
    if (bc.name == kCircuit) circuit = &bc;
  }
  if (circuit == nullptr) throw std::runtime_error(std::string("no circuit ") + kCircuit);
  rw::synth::SynthesisOptions effort;
  effort.multi_start = false;
  std::string top = circuit->name;  // a Verilog identifier: "RISC-5P" -> "RISC_5P"
  std::replace(top.begin(), top.end(), '-', '_');
  const auto synthesized = rw::synth::synthesize(circuit->build(), fresh, top, effort);
  const std::vector<std::string> cells = used_cells(synthesized.module);
  std::fprintf(stderr, "perfbench: %s synthesized: %zu instances, %zu cell types (%.1f s)\n",
               kCircuit, synthesized.module.instances().size(), cells.size(), seconds_since(t0));

  rw::charlib::LibraryFactory sub(factory_options(kCacheDir, cells));
  (void)sub.merged(lattice());
  if (!full.quarantined().empty() || !sub.quarantined().empty()) {
    throw std::runtime_error("prepare: a (scenario, cell) pair failed characterization");
  }
  std::string list;
  for (const std::string& c : cells) list += c + "\n";
  rw::util::write_file_atomic(kCellsFile, list);
  rw::util::write_file_atomic(kNetlistFile, rw::netlist::write_verilog(synthesized.module, fresh));
  rw::util::write_file_atomic(kPreparedFile, "ok\n");
  std::fprintf(stderr, "perfbench: prepared %zu lattice corners x %zu cells in %.1f s\n",
               lattice().size(), cells.size(), seconds_since(t0));
  return 0;
}

std::vector<std::string> prepared_cells() {
  std::vector<std::string> cells;
  std::istringstream in(read_file(kCellsFile));
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) cells.push_back(line);
  }
  return cells;
}

/// What every workload sets up: the fresh library loaded from the warm
/// cache and the circuit netlist parsed against it. The factory is read-only,
/// so it doubles as the reference for cold results and served replies.
struct Design {
  std::vector<std::string> cells;
  std::unique_ptr<rw::charlib::LibraryFactory> factory;
  const rw::liberty::Library* fresh = nullptr;
  rw::netlist::Module module{"empty"};
};

Design load_design() {
  Design d;
  d.cells = prepared_cells();
  d.factory = std::make_unique<rw::charlib::LibraryFactory>(
      factory_options(kCacheDir, d.cells, /*read_only=*/true));
  d.fresh = &d.factory->library(rw::aging::AgingScenario::fresh());
  d.module = rw::netlist::parse_verilog(read_file(kNetlistFile), *d.fresh);
  return d;
}

/// The in-process workloads take their first set-up sample here, and the
/// design it loads is the one the run uses. `sample_set_up` takes the rest.
Design set_up_design(Outcome& out) {
  const auto t0 = Clock::now();
  Design d = load_design();
  out.setup_s.push_back(seconds_since(t0));
  return d;
}

/// Between operations: takes the next set-up sample once its share of the
/// run has passed, and moves `t_start` on by its duration so the measured
/// window excludes it. Spread over the run, the samples' median reflects the
/// host over the whole run rather than the moment it started.
void sample_set_up(Outcome& out, double seconds, Clock::time_point& t_start) {
  const std::size_t taken = out.setup_s.size();
  if (taken >= kSetupRepeats ||
      seconds_since(t_start) < seconds * static_cast<double>(taken) / kSetupRepeats) {
    return;
  }
  const auto t0 = Clock::now();
  (void)load_design();
  const Clock::duration took = Clock::now() - t0;
  out.setup_s.push_back(std::chrono::duration<double>(took).count());
  t_start += took;
}

// --- cold_char ---------------------------------------------------------------

/// Each operation characterizes one of the circuit's cells — in rotation from
/// a seeded start, so every run holds the same cell mix — at a seeded corner
/// of the λ lattice every flow quantizes to before characterizing. It runs
/// into an empty cache directory and must reproduce the prepared cache
/// bitwise.
void run_cold(std::uint64_t seed, double seconds, bool trace, Outcome& out) {
  Design design = set_up_design(out);
  out.tail_p = kColdTailP;
  rw::util::Rng rng(seed);
  const auto lat = lattice();
  const std::vector<std::string>& cells = design.cells;
  const std::size_t first_cell = rng.next_below(cells.size());
  const std::string scratch = "cold-" + std::to_string(::getpid());
  std::vector<double> newton, factorizations, transients;

  auto t_start = Clock::now();
  for (std::size_t op = 0; seconds_since(t_start) < seconds; ++op) {
    const std::string& name = cells[(first_cell + op) % cells.size()];
    const rw::aging::AgingScenario scenario = lat[rng.next_below(lat.size())];
    const std::string dir = scratch + "/" + std::to_string(op);
    out.attempted += 1;
    rw::spice::reset_solver_counters();
    try {
      const auto t0 = Clock::now();
      rw::charlib::LibraryFactory factory(factory_options(dir, {name}));
      const rw::liberty::Cell& cell = factory.cell(name, scenario);
      const double ms = 1000.0 * seconds_since(t0);
      const auto counters = rw::spice::solver_counters();
      bool ok = factory.quarantined().empty() && !cell.arcs.empty();
      if (!ok) out.fail("cold " + name + " at " + scenario.id() + " is incomplete");
      // Determinism against the prepared (independently characterized)
      // cache: a cold run must reproduce it bitwise.
      if (ok && cell_library_text(design.factory->cell(name, scenario), scenario) !=
                    cell_library_text(cell, scenario)) {
        out.fail("cold " + name + " at " + scenario.id() + " differs from the prepared cache");
        ok = false;
      }
      if (ok) {
        out.latencies_ms.push_back(ms);
        newton.push_back(static_cast<double>(counters.newton_iterations));
        factorizations.push_back(static_cast<double>(counters.factorizations));
        transients.push_back(static_cast<double>(counters.transient_attempts));
      } else {
        out.failed += 1;
      }
    } catch (const std::exception& e) {
      out.fail(std::string("cold characterization threw: ") + e.what());
      out.failed += 1;
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
    sample_set_up(out, seconds, t_start);
  }
  out.measured_s = seconds_since(t_start);
  std::error_code ec;
  fs::remove_all(scratch, ec);
  if (trace) {
    out.layers["spice_newton_iterations"] = median(newton);
    out.layers["spice_factorizations"] = median(factorizations);
    out.layers["spice_transients"] = median(transients);
  }
}

// --- warm_flows --------------------------------------------------------------

/// Each operation is one round of the three guardband flows with a new
/// factory over the warm cache, so every library comes from disk.
void run_warm(std::uint64_t seed, double seconds, bool trace, Outcome& out) {
  Design design = set_up_design(out);
  out.tail_p = kWarmTailP;
  const rw::netlist::Module& module = design.module;
  std::vector<double> load_ms, static_ms, dynamic_ms, proven_ms;
  constexpr double kEps = 1e-6;

  auto t_start = Clock::now();
  for (long op = 0; seconds_since(t_start) < seconds; ++op) {
    out.attempted += 1;
    rw::spice::reset_solver_counters();
    rw::util::Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(op));
    try {
      const auto t0 = Clock::now();
      rw::charlib::LibraryFactory factory(factory_options(kCacheDir, design.cells));
      (void)factory.library(rw::aging::AgingScenario::fresh());
      const auto t1 = Clock::now();
      const auto stat = rw::flow::static_guardband(module, factory,
                                                   rw::aging::AgingScenario::worst_case(kYears));
      const auto t2 = Clock::now();
      const auto dyn = rw::flow::dynamic_workload_guardband(
          module, factory, random_stimulus(module, rng), kCycles, kYears);
      const auto t3 = Clock::now();
      const auto proven = rw::flow::proven_guardband(module, factory, kYears);
      const auto t4 = Clock::now();
      const double ms = 1000.0 * std::chrono::duration<double>(t4 - t0).count();

      const auto ms_between = [](Clock::time_point a, Clock::time_point b) {
        return 1000.0 * std::chrono::duration<double>(b - a).count();
      };
      bool ok = true;
      if (rw::spice::solver_counters().newton_iterations != 0) {
        out.fail("warm round ran SPICE: a library was missing from the prepared cache");
        ok = false;
      }
      const rw::stress::RealInterval& iv = proven.summary.aged_cp_ps;
      if (proven.summary.vacuous) {
        out.fail("proven guardband is vacuous");
        ok = false;
      } else if (dyn.report.aged_cp_ps < iv.lo - kEps || dyn.report.aged_cp_ps > iv.hi + kEps) {
        out.fail("dynamic aged CP escapes the proven interval");
        ok = false;
      }
      if (!(stat.fresh_cp_ps > 0.0) || stat.fresh_cp_ps != dyn.report.fresh_cp_ps ||
          stat.fresh_cp_ps != proven.summary.fresh_cp_ps) {
        out.fail("flows disagree on the fresh critical path");
        ok = false;
      }
      if (!(stat.aged_cp_ps >= stat.fresh_cp_ps)) {
        out.fail("worst-case aging shortened the critical path");
        ok = false;
      }
      if (ok) {
        out.latencies_ms.push_back(ms);
        load_ms.push_back(ms_between(t0, t1));
        static_ms.push_back(ms_between(t1, t2));
        dynamic_ms.push_back(ms_between(t2, t3));
        proven_ms.push_back(ms_between(t3, t4));
      } else {
        out.failed += 1;
      }
    } catch (const std::exception& e) {
      out.fail(std::string("warm flow threw: ") + e.what());
      out.failed += 1;
    }
    sample_set_up(out, seconds, t_start);
  }
  out.measured_s = seconds_since(t_start);
  if (trace) {
    out.layers["library_load_ms"] = median(load_ms);
    out.layers["flow_static_ms"] = median(static_ms);
    out.layers["flow_dynamic_ms"] = median(dynamic_ms);
    out.layers["flow_proven_ms"] = median(proven_ms);
  }
}

// --- served ------------------------------------------------------------------

/// A forked `rwserved` over the prepared cache. Destruction (an exception
/// included) kills a daemon that was not stopped cleanly.
class Daemon {
 public:
  Daemon(const std::string& rwserved, std::string socket) : socket_(std::move(socket)) {
    ::unlink(socket_.c_str());
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const char* argv[] = {rwserved.c_str(), "--socket", socket_.c_str(), "--cache", kCacheDir,
                            nullptr};
      ::execv(rwserved.c_str(), const_cast<char* const*>(argv));
      _exit(127);
    }
  }
  ~Daemon() { (void)wait(0.0); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Returns once the daemon has bound its socket (or after `timeout_s`).
  /// A client that connects earlier sleeps 25-75 ms (random) before it
  /// retries, and that jitter would swamp setup_s.
  void wait_bound(double timeout_s) const {
    const auto t0 = Clock::now();
    std::error_code ec;
    while (!fs::exists(socket_, ec) && seconds_since(t0) < timeout_s) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// Waits up to `timeout_s` for the daemon to exit (after op=shutdown),
  /// SIGKILLs it after that. Returns its exit code, -1 when killed.
  int wait(double timeout_s) {
    if (pid_ <= 0) return 0;
    const auto t0 = Clock::now();
    int status = 0;
    int code = -1;
    for (;;) {
      const pid_t got = ::waitpid(pid_, &status, WNOHANG);
      if (got == pid_) {
        code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        break;
      }
      if (got < 0 || seconds_since(t0) >= timeout_s) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    ::unlink(socket_.c_str());
    return code;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// Asks the daemon to drain and waits for a clean exit.
void stop_daemon(Daemon& daemon, rw::serve::ServeClient& client, const std::string& id,
                 Outcome& out) {
  rw::serve::Request stop;
  stop.id = id;
  stop.op = "shutdown";
  if (client.request(stop).status != "ok" || daemon.wait(30.0) != 0) {
    out.fail("daemon did not drain to exit 0");
  }
}

struct Key {
  std::string cell;
  rw::aging::AgingScenario scenario;
};

/// The (cell, corner) pairs one seeded dynamic round on the circuit asks its
/// factory for — one per distinct λ-indexed cell of the annotated netlist,
/// in the order the flow's used-corner library requests them. This is the
/// characterize traffic a served dynamic flow sends.
std::vector<Key> dynamic_round_keys(Design& design, std::uint64_t seed) {
  rw::util::Rng rng(seed * 1000003ULL);
  const auto dyn = rw::flow::dynamic_workload_guardband(
      design.module, *design.factory, random_stimulus(design.module, rng), kCycles, kYears);
  std::set<std::string> indexed;
  for (const auto& inst : dyn.annotated.instances()) indexed.insert(inst.cell);
  std::vector<Key> keys;
  for (const std::string& name : indexed) {
    std::string base;
    double lp = 0.0;
    double ln = 0.0;
    if (!rw::util::parse_indexed_cell_name(name, base, lp, ln)) {
      throw std::runtime_error("dynamic round left " + name + " unannotated");
    }
    keys.push_back({base, rw::aging::AgingScenario{lp, ln, kYears, true}});
  }
  return keys;
}

rw::serve::Request characterize_request(const std::string& id, const Key& key) {
  rw::serve::Request req;
  req.id = id;
  req.op = "characterize";
  req.cell = key.cell;
  req.lambda_p = key.scenario.lambda_p;
  req.lambda_n = key.scenario.lambda_n;
  req.years = key.scenario.years;
  req.include_mobility = key.scenario.include_mobility;
  return req;
}

/// Each client replays the dynamic round's requests in order, from its own
/// seeded starting point, and loops.
void run_served(const std::string& rwserved, std::uint64_t seed, double seconds, bool trace,
                Outcome& out) {
  Design design = load_design();
  const std::vector<Key> keys = dynamic_round_keys(design, seed);
  std::fprintf(stderr, "perfbench: served keys: %zu (cell, corner) pairs\n", keys.size());
  out.tail_p = kServedTailP;
  const std::string socket = "serve-" + std::to_string(::getpid()) + ".sock";
  const std::string run_tag = std::to_string(::getpid()) + "-" + std::to_string(seed);
  std::vector<std::string> first_reply(keys.size());
  std::vector<double> assembly_ms;
  std::unique_ptr<Daemon> daemon;

  // Set-up: start the daemon and pull the working set through it once
  // (disk read + Liberty parse + serialize per key, then memoized).
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(rwserved, socket);
    daemon->wait_bound(30.0);
    rw::serve::ClientOptions copt;
    copt.socket_path = socket;
    rw::serve::ServeClient client(copt);
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const auto tk = Clock::now();
      const auto resp = client.request(characterize_request(
          "warm-" + run_tag + "-" + std::to_string(rep) + "-" + std::to_string(k), keys[k]));
      if (resp.status != "ok") {
        out.fail("served warm-up " + resp.status + ": " + resp.error);
      }
      if (rep + 1 == kSetupRepeats) {
        assembly_ms.push_back(1000.0 * seconds_since(tk));
        first_reply[k] = resp.library;
      }
    }
    out.setup_s.push_back(seconds_since(t0));
    if (rep + 1 < kSetupRepeats) {
      stop_daemon(*daemon, client, "stop-" + run_tag + "-" + std::to_string(rep), out);
    }
  }

  std::mutex mu;
  std::atomic<long> attempted{0}, failed{0};
  std::vector<std::thread> clients;
  const auto t_start = Clock::now();
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      rw::util::Rng crng(seed * 7919ULL + static_cast<std::uint64_t>(c) + 1);
      const std::size_t start = crng.next_below(keys.size());
      rw::serve::ClientOptions copt;
      copt.socket_path = socket;
      std::vector<double> lat_ms;
      std::string error;
      try {
        rw::serve::ServeClient client(copt);
        for (std::size_t i = 0; seconds_since(t_start) < seconds; ++i) {
          const std::size_t k = (start + i) % keys.size();
          attempted += 1;
          const auto t0 = Clock::now();
          const auto resp = client.request(characterize_request(
              "ld-" + run_tag + "-" + std::to_string(c) + "-" + std::to_string(i), keys[k]));
          const double ms = 1000.0 * seconds_since(t0);
          if (resp.status != "ok" || resp.library != first_reply[k]) {
            failed += 1;
            if (error.empty()) error = "served reply differs for " + keys[k].cell;
          } else {
            lat_ms.push_back(ms);
          }
        }
      } catch (const std::exception& e) {
        failed += 1;
        error = e.what();
      }
      std::lock_guard<std::mutex> lock(mu);
      out.latencies_ms.insert(out.latencies_ms.end(), lat_ms.begin(), lat_ms.end());
      if (!error.empty()) out.fail(error);
    });
  }
  for (auto& t : clients) t.join();
  out.measured_s = seconds_since(t_start);
  out.attempted += attempted.load();
  out.failed += failed.load();

  rw::serve::ClientOptions copt;
  copt.socket_path = socket;
  try {
    rw::serve::ServeClient client(copt);
    rw::serve::Request req;
    req.id = "stats-" + run_tag;
    req.op = "stats";
    const auto stats = client.request(req);
    for (const auto& [name, value] : stats.stats) {
      // Every key is on disk: a dispatch means a worker ran SPICE.
      if (name == "dispatches" && value != 0.0) out.fail("served workload dispatched SPICE work");
    }
    if (trace) {
      std::vector<double> ping_ms;
      for (int i = 0; i < 2000; ++i) {
        req.id = "ping-" + run_tag + "-" + std::to_string(i);
        req.op = "ping";
        const auto t0 = Clock::now();
        if (client.request(req).status != "ok") out.fail("ping failed");
        ping_ms.push_back(1000.0 * seconds_since(t0));
      }
      out.layers["serve_ping_ms"] = median(ping_ms);
    }
    stop_daemon(*daemon, client, "stop-" + run_tag, out);
  } catch (const std::exception& e) {
    out.fail(std::string("stats/shutdown failed: ") + e.what());
  }
  daemon.reset();

  // Every distinct reply must equal the library the in-process factory
  // reads from the same cache.
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const Key& key = keys[k];
    const std::string expect =
        cell_library_text(design.factory->cell(key.cell, key.scenario), key.scenario);
    if (first_reply[k] != expect) out.fail("served " + key.cell + " differs from the cache");
  }
  if (trace) out.layers["serve_assembly_ms"] = median(assembly_ms);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work;
  std::string rwserved;
  bool prepare = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --work DIR --prepare\n"
               "       perfbench --work DIR --rwserved PATH --workload cold_char|warm_flows|"
               "served --seed N --seconds S --trace 0|1\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    const bool has_value = i + 1 < argc;
    if (f == "--prepare") {
      a.prepare = true;
    } else if (f == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (f == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (f == "--seconds" && has_value) {
      a.seconds = std::atof(argv[++i]);
    } else if (f == "--trace" && has_value) {
      a.trace = std::string(argv[++i]) == "1";
    } else if (f == "--work" && has_value) {
      a.work = argv[++i];
    } else if (f == "--rwserved" && has_value) {
      a.rwserved = fs::absolute(argv[++i]).string();
    } else {
      return usage();
    }
  }
  if (a.work.empty()) return usage();
  rw::flow::install_signal_handlers();
  rw::util::io::ignore_sigpipe();
  // Preflight lint warnings are noise here; errors still abort a flow.
  setenv("RW_LINT_MIN_SEVERITY", "error", 1);
  fs::create_directories(a.work);
  fs::current_path(a.work);  // relative paths keep the daemon socket short

  try {
    if (a.prepare) {
      rw::util::set_shared_thread_count(0);
      return prepare();
    }
    if (!fs::exists(kPreparedFile)) {
      std::fprintf(stderr, "perfbench: %s is not prepared\n", a.work.c_str());
      return 2;
    }
    rw::util::set_shared_thread_count(kThreads);
    Outcome out;
    if (a.workload == "cold_char") {
      run_cold(a.seed, a.seconds, a.trace, out);
    } else if (a.workload == "warm_flows") {
      run_warm(a.seed, a.seconds, a.trace, out);
    } else if (a.workload == "served") {
      if (a.rwserved.empty()) return usage();
      run_served(a.rwserved, a.seed, a.seconds, a.trace, out);
    } else {
      return usage();
    }
    print_outcome(out, a.trace);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
