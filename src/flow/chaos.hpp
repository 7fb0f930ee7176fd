#pragma once

/// \file chaos.hpp
/// Seeded chaos campaign over the orchestrated dynamic-workload guardband
/// flow: each trial derives a fault plan from its seed (solver convergence
/// failure, NaN residual, stall against the solve watchdog, a wall-clock
/// deadline, or a SIGKILL at a stage boundary via fork), runs the flow under
/// the orchestrator, and asserts the crash-only contract — every trial must
/// either complete correctly or fail with a structured RunReport and then
/// complete via RW_FLOW_RESUME-style resume.
///
/// Correctness is graded in two tiers. Trials whose plan injects no solver
/// fault (clean, deadline, crash) must reproduce the reference run's result
/// *bitwise* (hexfloat signature): their completed stages were computed
/// cleanly, so checkpoint round-tripping guarantees equality. Trials that
/// inject solver faults may legitimately complete through a different retry
/// ladder rung (different solver options, slightly different tables), so
/// they are held to structural invariants (finite, positive critical paths
/// and a parseable report) instead of bitwise equality.
///
/// All campaign state (factories, flow directories, disk caches) is private
/// per trial; the shared thread pool is forced to one thread so fork() is
/// safe. The harness backs `rwchaos`, `bench/chaos_campaign`, and the chaos
/// ctest label.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "charlib/factory.hpp"
#include "flow/guardband_flow.hpp"

namespace rw::flow {

/// What one seeded trial does to the flow.
struct ChaosPlan {
  std::uint64_t seed = 0;
  /// "clean" | "fail" | "nan" | "stall" | "deadline" | "crash".
  std::string kind = "clean";
  std::uint64_t nth = 1;        ///< 1-based solve attempt to fault (fail/nan/stall)
  std::uint64_t times = 1;      ///< consecutive faulted attempts
  double stall_ms = 120.0;      ///< injected stall length (kind == "stall")
  double watchdog_ms = 30.0;    ///< per-solve watchdog arming the stall trip
  int deadline_ms = 10;         ///< cancel deadline (kind == "deadline")
  int kill_after_stage = 0;     ///< SIGKILL boundary (kind == "crash"), 0-based
};

/// Deterministic plan for a seed (same seed, same plan, any platform).
ChaosPlan plan_for_seed(std::uint64_t seed);

/// Tiny three-gate DUT (NAND2_X1 -> INV_X1 -> DFF_X1) the campaign times.
netlist::Module chaos_test_module();

/// Factory options for chaos trials: coarse OPC grid, three-cell subset, and
/// *no* disk cache (the Liberty text cache rounds to 4 decimals, which would
/// break the bitwise comparison between runs that hit it and runs that
/// don't).
charlib::LibraryFactory::Options chaos_factory_options();

/// One orchestrated dynamic-workload guardband run over the chaos DUT with a
/// fixed-seed pseudo-random stimulus (identical across every invocation).
DynamicAgingResult run_orchestrated_guardband(charlib::LibraryFactory& factory,
                                              const OrchestratorOptions& orch);

/// Exact (hexfloat) signature of a flow result: report, corners, and the
/// annotated instance cells. Two runs agree bitwise iff signatures match.
std::string result_signature(const DynamicAgingResult& result);

struct ChaosTrialResult {
  std::uint64_t seed = 0;
  std::string kind;
  /// "ok" | "failed_then_resumed" | "wrong_result" | "no_report" |
  /// "resume_failed".
  std::string outcome;
  std::string detail;  ///< what happened (error text, mismatch note)
  double wall_ms = 0.0;
};

struct ChaosCampaignResult {
  std::vector<ChaosTrialResult> trials;
  std::map<std::string, int> histogram;  ///< outcome -> count
  bool all_good = false;  ///< only {ok, failed_then_resumed} observed
};

/// Runs one trial in `work_dir` (created fresh; any previous contents are
/// removed) against the campaign's reference signature.
ChaosTrialResult run_chaos_trial(const ChaosPlan& plan, const std::string& work_dir,
                                 const std::string& reference_signature);

/// Runs `n_trials` seeded trials (seeds base_seed, base_seed+1, ...) under
/// `work_root`, computing the disarmed reference run first. Forces the
/// shared thread pool to one thread for the duration (fork safety).
ChaosCampaignResult run_chaos_campaign(std::uint64_t base_seed, int n_trials,
                                       const std::string& work_root);

/// Machine-readable campaign summary (BENCH_chaos.json / rwchaos --json-out)
/// under a bench name ("chaos_campaign", "serve_chaos_campaign", ...).
std::string campaign_json(const ChaosCampaignResult& campaign, std::uint64_t base_seed,
                          const std::string& bench_name = "chaos_campaign");

// ---------------------------------------------------------------------------
// Serve campaign: the same crash-only contract, applied to rwserved.
// ---------------------------------------------------------------------------

/// What one seeded trial does to the characterization service. Every trial
/// forks a real `serve::Server` daemon over a private disk cache, sends one
/// op=library request through `serve::ServeClient`, and asserts that the
/// served text is BITWISE identical to a direct in-process LibraryFactory
/// run — faults may only cost latency, never bytes.
struct ServeChaosPlan {
  std::uint64_t seed = 0;
  /// "clean"          — no fault; must grade ok.
  /// "kill_worker"    — supervisor SIGKILLs the worker right after the k-th
  ///                    dispatch; reap -> respawn -> redelivery.
  /// "hang"           — the k-th dispatched task stalls past its lease; the
  ///                    supervisor kills the wedged worker and redelivers.
  /// "kill_daemon"    — the daemon SIGKILLs itself after the k-th dispatch;
  ///                    the harness restarts it and the client resends the
  ///                    SAME request id against the surviving cache.
  /// "client_timeout" — the task stalls under a short client timeout; the
  ///                    client's idempotent-id resends must dedup, not
  ///                    recompute.
  std::string kind = "clean";
  long after_dispatch = 1;     ///< 1-based dispatch ordinal the chaos fires on
  double hang_ms = 0.0;        ///< injected worker stall (hang / client_timeout)
  double lease_ms = 10000.0;   ///< per-task lease deadline for this trial
  int workers = 2;             ///< daemon worker-process count
};

/// Deterministic serve plan for a seed (decorrelated from plan_for_seed).
ServeChaosPlan serve_plan_for_seed(std::uint64_t seed);

/// The fixed scenario every serve trial characterizes.
aging::AgingScenario serve_chaos_scenario();

/// Direct (no daemon) LibraryFactory text for serve_chaos_scenario() over
/// chaos_factory_options(): the byte-exact reference every served library
/// must reproduce.
std::string serve_reference_library();

/// Runs one serve trial in `work_dir` (created fresh) against the reference
/// text. Forks a daemon; the caller must have sized the shared pool to 1.
ChaosTrialResult run_serve_chaos_trial(const ServeChaosPlan& plan,
                                       const std::string& work_dir,
                                       const std::string& reference_library);

/// Runs `n_trials` seeded serve trials (seeds base_seed, base_seed+1, ...)
/// under `work_root`. Computes the direct-factory reference first, forces
/// the shared pool to one thread (fork safety), and ignores SIGPIPE.
ChaosCampaignResult run_serve_chaos_campaign(std::uint64_t base_seed, int n_trials,
                                             const std::string& work_root);

// ---------------------------------------------------------------------------
// Fleet campaign: TWO daemons sharing one cache, no coordinator.
// ---------------------------------------------------------------------------

/// What one seeded trial does to a two-daemon fleet sharing `work_dir/cache`.
/// Every trial asserts the fleet answer is BITWISE identical to the direct
/// in-process reference — peers, steals, and GC may only cost latency.
struct FleetChaosPlan {
  std::uint64_t seed = 0;
  /// "kill_daemon_mid_load" — daemon A SIGKILLs itself after the k-th
  ///                          dispatch; B adopts A's spooled work and the
  ///                          client resends the SAME id to B.
  /// "gc_during_char"       — op=gc sweeps (max_age_ms=0) hammer daemon B
  ///                          while A characterizes; evictions force
  ///                          re-characterization, bytes must not change.
  /// "lease_steal"          — A's single worker wedges on its first task;
  ///                          B steals A's still-spooled entries and
  ///                          publishes them; A completes from disk hits.
  std::string kind = "kill_daemon_mid_load";
  long after_dispatch = 1;  ///< 1-based dispatch ordinal A's chaos fires on
  double hang_ms = 0.0;     ///< injected worker stall (lease_steal)
  int workers = 2;          ///< worker-process count per daemon
};

/// Deterministic fleet plan for a seed (decorrelated from the other plans).
FleetChaosPlan fleet_plan_for_seed(std::uint64_t seed);

/// Runs one fleet trial in `work_dir` (created fresh) against the reference
/// text. Forks two daemons; the caller must have sized the shared pool to 1.
ChaosTrialResult run_serve_fleet_trial(const FleetChaosPlan& plan,
                                       const std::string& work_dir,
                                       const std::string& reference_library);

/// Runs `n_trials` seeded fleet trials (seeds base_seed, base_seed+1, ...)
/// under `work_root`. Same setup contract as run_serve_chaos_campaign.
ChaosCampaignResult run_serve_fleet_campaign(std::uint64_t base_seed, int n_trials,
                                             const std::string& work_root);

}  // namespace rw::flow
