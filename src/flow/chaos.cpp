#include "flow/chaos.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>

#include "flow/artifact.hpp"
#include "flow/cancel.hpp"
#include "liberty/writer.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "spice/fault.hpp"
#include "spice/solver.hpp"
#include "util/atomic_file.hpp"
#include "util/io.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace rw::flow {

namespace fs = std::filesystem;

namespace {

constexpr int kCycles = 64;
constexpr double kYears = 10.0;

double now_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Undo every process-wide knob a trial may have touched, even on the
/// exceptional path: injector, solve watchdog, cancellation token.
struct TrialHygiene {
  TrialHygiene() = default;
  TrialHygiene(const TrialHygiene&) = delete;
  TrialHygiene& operator=(const TrialHygiene&) = delete;
  ~TrialHygiene() {
    spice::FaultInjector::instance().disarm();
    spice::set_solve_watchdog_ms(0.0);
    cancel_token().clear();
  }
};

/// True when the run report at `path` parses as a sealed RunReport with
/// string `flow` and `status` members (the crash-only contract for
/// in-process failures).
bool structured_report_exists(const std::string& path) {
  bool has_flow = false;
  bool has_status = false;
  std::string value;
  std::string error;
  const bool parsed = util::json::parse_object_file(
      path, error, [&](util::json::Reader& r, std::string_view key) {
        if (key == "flow") return has_flow = r.string(value);
        if (key == "status") return has_status = r.string(value);
        return r.skip();
      });
  return parsed && has_flow && has_status;
}

/// Structural sanity for fault-injected completions (a different retry
/// ladder rung may legitimately shift the tables, so no bitwise claim).
bool plausible(const DynamicAgingResult& r) {
  return std::isfinite(r.report.fresh_cp_ps) && std::isfinite(r.report.aged_cp_ps) &&
         r.report.fresh_cp_ps > 0.0 && r.report.aged_cp_ps > 0.0 && !r.corners.empty();
}

ChaosTrialResult classify(const ChaosPlan& plan, std::string outcome, std::string detail,
                          double wall_ms) {
  ChaosTrialResult t;
  t.seed = plan.seed;
  t.kind = plan.kind;
  t.outcome = std::move(outcome);
  t.detail = std::move(detail);
  t.wall_ms = wall_ms;
  return t;
}

/// The loop every campaign shares: the shared pool at one thread
/// throughout (trials fork, and fork() must not race live pool threads),
/// `work_root` created, the reference `make_reference` computes, one trial
/// per seed in `work_root/trial_<seed>`, the outcome histogram and the
/// verdict.
ChaosCampaignResult run_campaign(
    std::uint64_t base_seed, int n_trials, const std::string& work_root,
    const std::function<std::string()>& make_reference,
    const std::function<ChaosTrialResult(std::uint64_t, const std::string&, const std::string&)>&
        run_trial) {
  util::set_shared_thread_count(1);
  ChaosCampaignResult campaign;
  std::error_code ec;
  fs::create_directories(work_root, ec);
  const std::string reference = make_reference();
  for (int i = 0; i < n_trials; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    ChaosTrialResult trial =
        run_trial(seed, work_root + "/trial_" + std::to_string(seed), reference);
    campaign.histogram[trial.outcome] += 1;
    campaign.trials.push_back(std::move(trial));
  }
  campaign.all_good = true;
  for (const auto& [outcome, count] : campaign.histogram) {
    (void)count;
    if (outcome != "ok" && outcome != "failed_then_resumed") campaign.all_good = false;
  }
  util::set_shared_thread_count(0);  // restore the default pool size
  return campaign;
}

}  // namespace

ChaosPlan plan_for_seed(std::uint64_t seed) {
  util::Rng rng(seed);
  ChaosPlan plan;
  plan.seed = seed;
  static const char* kKinds[] = {"clean", "fail", "nan", "stall", "deadline", "crash"};
  plan.kind = kKinds[rng.uniform_int(0, 5)];
  plan.nth = static_cast<std::uint64_t>(rng.uniform_int(1, 8));
  plan.times = static_cast<std::uint64_t>(rng.uniform_int(1, 3));
  plan.stall_ms = rng.uniform(80.0, 200.0);
  plan.watchdog_ms = rng.uniform(15.0, 40.0);
  plan.deadline_ms = rng.uniform_int(2, 40);
  plan.kill_after_stage = rng.uniform_int(0, 3);  // the dynamic flow's 4 stages
  return plan;
}

netlist::Module chaos_test_module() {
  netlist::Module m("chaos_dut");
  const netlist::NetId a = m.add_net("a");
  const netlist::NetId b = m.add_net("b");
  const netlist::NetId ck = m.add_net("ck");
  m.mark_input(a);
  m.mark_input(b);
  m.set_clock(ck);
  const netlist::NetId n1 = m.add_net("n1");
  const netlist::NetId n2 = m.add_net("n2");
  const netlist::NetId q = m.add_net("q");
  m.mark_output(q);
  m.add_instance("u1", "NAND2_X1", {a, b}, n1);
  m.add_instance("u2", "INV_X1", {n1}, n2);
  m.add_instance("r1", "DFF_X1", {n2, ck}, q);  // DFF pin order is {D, CK}
  return m;
}

charlib::LibraryFactory::Options chaos_factory_options() {
  charlib::LibraryFactory::Options o;
  o.characterize.grid = charlib::OpcGrid::coarse();
  o.cell_subset = {"INV_X1", "NAND2_X1", "DFF_X1"};
  o.cache_dir.clear();  // no Liberty disk cache: its 4-decimal rounding would
                        // make cache-hitting runs diverge from cache misses
  return o;
}

DynamicAgingResult run_orchestrated_guardband(charlib::LibraryFactory& factory,
                                              const OrchestratorOptions& orch) {
  const netlist::Module module = chaos_test_module();
  const std::vector<netlist::NetId> inputs = module.inputs();
  const auto rng = std::make_shared<util::Rng>(0x5eedULL);
  const Stimulus stimulus = [inputs, rng](logicsim::CycleSimulator& sim, int) {
    for (const netlist::NetId net : inputs) sim.set_input(net, rng->chance(0.5));
  };
  return dynamic_workload_guardband(module, factory, stimulus, kCycles, kYears, {}, &orch);
}

std::string result_signature(const DynamicAgingResult& result) {
  std::vector<double> values{result.report.fresh_cp_ps, result.report.aged_cp_ps};
  for (const auto& [lp, ln] : result.corners) {
    values.push_back(lp);
    values.push_back(ln);
  }
  std::string sig = artifact::encode_doubles(values);
  for (const netlist::Instance& inst : result.annotated.instances()) {
    sig += inst.cell;
    sig += '\n';
  }
  return sig;
}

ChaosTrialResult run_chaos_trial(const ChaosPlan& plan, const std::string& work_dir,
                                 const std::string& reference_signature) {
  const auto t0 = std::chrono::steady_clock::now();
  TrialHygiene hygiene;
  std::error_code ec;
  fs::remove_all(work_dir, ec);
  fs::create_directories(work_dir, ec);
  OrchestratorOptions orch;
  orch.dir = work_dir + "/flow";

  const bool injects_fault = plan.kind == "fail" || plan.kind == "nan" || plan.kind == "stall";

  if (plan.kind == "crash") {
    // First run in a forked child that SIGKILLs itself at a stage boundary;
    // the parent then resumes over the same flow directory.
    OrchestratorOptions child_orch = orch;
    child_orch.kill_after_stage = plan.kill_after_stage;
    const pid_t pid = fork();
    if (pid < 0) {
      return classify(plan, "resume_failed", "fork failed", now_ms(t0));
    }
    if (pid == 0) {
      try {
        charlib::LibraryFactory child_factory(chaos_factory_options());
        (void)run_orchestrated_guardband(child_factory, child_orch);
      } catch (...) {
      }
      _exit(0);  // unreachable when the kill hook fires; _exit avoids
                 // flushing the parent's duplicated stdio buffers
    }
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
      return classify(plan, "no_report", "child was not SIGKILLed as planned", now_ms(t0));
    }
    try {
      OrchestratorOptions resume_orch = orch;
      resume_orch.resume = true;
      charlib::LibraryFactory factory(chaos_factory_options());
      const DynamicAgingResult resumed = run_orchestrated_guardband(factory, resume_orch);
      if (result_signature(resumed) != reference_signature) {
        return classify(plan, "wrong_result", "resumed result differs from reference",
                        now_ms(t0));
      }
      return classify(plan, "failed_then_resumed",
                      "SIGKILL after stage " + std::to_string(plan.kill_after_stage),
                      now_ms(t0));
    } catch (const std::exception& e) {
      return classify(plan, "resume_failed", e.what(), now_ms(t0));
    }
  }

  // In-process trials: arm the planned fault, run once, and on failure
  // demand a structured report plus a clean resume.
  if (plan.kind == "fail") {
    spice::FaultInjector::instance().arm_fail_nth(plan.nth, plan.times,
                                                 spice::FaultInjector::Action::kFailConvergence);
  } else if (plan.kind == "nan") {
    spice::FaultInjector::instance().arm_fail_nth(plan.nth, plan.times,
                                                  spice::FaultInjector::Action::kNanResidual);
  } else if (plan.kind == "stall") {
    spice::FaultInjector::instance().set_stall_ms(plan.stall_ms);
    spice::FaultInjector::instance().arm_fail_nth(plan.nth, plan.times,
                                                  spice::FaultInjector::Action::kStall);
    spice::set_solve_watchdog_ms(plan.watchdog_ms);
  } else if (plan.kind == "deadline") {
    cancel_token().set_deadline_after_ms(plan.deadline_ms);
  }

  std::string first_error;
  try {
    charlib::LibraryFactory factory(chaos_factory_options());
    const DynamicAgingResult result = run_orchestrated_guardband(factory, orch);
    if (injects_fault) {
      // A retry-ladder rung may have absorbed the fault with different
      // solver options; hold the result to invariants, not bitwise equality.
      if (!plausible(result)) {
        return classify(plan, "wrong_result", "completed with implausible report", now_ms(t0));
      }
    } else if (result_signature(result) != reference_signature) {
      return classify(plan, "wrong_result", "result differs from reference", now_ms(t0));
    }
    return classify(plan, "ok", "completed on the first run", now_ms(t0));
  } catch (const std::exception& e) {
    first_error = e.what();
  }

  if (!structured_report_exists(orch.dir + "/run_report.json")) {
    return classify(plan, "no_report", "failed without a run report: " + first_error,
                    now_ms(t0));
  }
  // Disarm everything and resume over the surviving checkpoints.
  spice::FaultInjector::instance().disarm();
  spice::set_solve_watchdog_ms(0.0);
  cancel_token().clear();
  try {
    OrchestratorOptions resume_orch = orch;
    resume_orch.resume = true;
    charlib::LibraryFactory factory(chaos_factory_options());
    const DynamicAgingResult resumed = run_orchestrated_guardband(factory, resume_orch);
    const bool good = injects_fault ? plausible(resumed)
                                    : result_signature(resumed) == reference_signature;
    if (!good) {
      return classify(plan, "wrong_result", "resumed result rejected (" + first_error + ")",
                      now_ms(t0));
    }
    return classify(plan, "failed_then_resumed", first_error, now_ms(t0));
  } catch (const std::exception& e) {
    return classify(plan, "resume_failed", std::string(e.what()) + " (after " + first_error + ")",
                    now_ms(t0));
  }
}

ChaosCampaignResult run_chaos_campaign(std::uint64_t base_seed, int n_trials,
                                       const std::string& work_root) {
  // Disarmed reference: the uninterrupted orchestrated run every no-fault
  // trial must reproduce bitwise.
  const auto reference = [&] {
    TrialHygiene hygiene;
    std::error_code ec;
    fs::remove_all(work_root + "/reference", ec);
    OrchestratorOptions orch;
    orch.dir = work_root + "/reference/flow";
    charlib::LibraryFactory factory(chaos_factory_options());
    return result_signature(run_orchestrated_guardband(factory, orch));
  };
  return run_campaign(base_seed, n_trials, work_root, reference,
                      [](std::uint64_t seed, const std::string& work_dir,
                         const std::string& reference_signature) {
                        return run_chaos_trial(plan_for_seed(seed), work_dir,
                                               reference_signature);
                      });
}

std::string campaign_json(const ChaosCampaignResult& campaign, std::uint64_t base_seed,
                          const std::string& bench_name) {
  std::string out = "{\"bench\":\"" + bench_name + "\",\"base_seed\":" + std::to_string(base_seed) +
                    ",\"trials\":" + std::to_string(campaign.trials.size()) +
                    ",\"all_good\":" + (campaign.all_good ? "true" : "false") +
                    ",\"histogram\":{";
  bool first = true;
  for (const auto& [outcome, count] : campaign.histogram) {
    if (!first) out += ',';
    first = false;
    util::append_json_string(out, outcome);
    out += ':' + std::to_string(count);
  }
  out += "},\"runs\":[";
  for (std::size_t i = 0; i < campaign.trials.size(); ++i) {
    const ChaosTrialResult& t = campaign.trials[i];
    if (i != 0) out += ',';
    out += "{\"seed\":" + std::to_string(t.seed) + ",\"kind\":";
    util::append_json_string(out, t.kind);
    out += ",\"outcome\":";
    util::append_json_string(out, t.outcome);
    out += ",\"detail\":";
    util::append_json_string(out, t.detail);
    char wall[64];
    std::snprintf(wall, sizeof wall, "%.3f", t.wall_ms);
    out += ",\"wall_ms\":";
    out += wall;
    out += '}';
  }
  out += "]}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Serve campaign
// ---------------------------------------------------------------------------

namespace {

/// A short socket path (sun_path caps at ~100 bytes; ctest work dirs are
/// routinely longer), unique per (harness pid, seed).
std::string serve_socket_path(std::uint64_t seed) {
  return "/tmp/rwserve_" + std::to_string(::getpid()) + "_" + std::to_string(seed) + ".sock";
}

serve::ServeOptions serve_trial_options(const ServeChaosPlan& plan, const std::string& work_dir,
                                        const std::string& socket_path) {
  serve::ServeOptions o;
  o.socket_path = socket_path;
  o.workers = plan.workers;
  o.lease_ms = plan.lease_ms;
  o.queue_max = 16;
  o.backoff_base_ms = 25.0;
  o.factory = chaos_factory_options();
  o.factory.cache_dir = work_dir + "/cache";  // the serve data plane NEEDS a cache
  if (plan.kind == "kill_worker") o.chaos_kill_worker_after = plan.after_dispatch;
  if (plan.kind == "kill_daemon") o.chaos_exit_after = plan.after_dispatch;
  if (plan.kind == "hang" || plan.kind == "client_timeout") {
    o.chaos_hang_after = plan.after_dispatch;
    o.chaos_hang_ms = plan.hang_ms;
  }
  return o;
}

/// Forks a real daemon running Server::run(). The child never returns.
pid_t spawn_serve_daemon(const serve::ServeOptions& options) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  cancel_token().clear();       // a tripped harness token must not pre-drain us
  install_signal_handlers();    // SIGTERM drains, exactly as in the rwserved CLI
  int code = 2;
  try {
    serve::Server server(options);
    code = server.run();
  } catch (...) {
  }
  _exit(code);
}

/// waitpid with a deadline; true when the daemon was reaped.
bool wait_daemon(pid_t pid, int timeout_ms, int& status) {
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    const pid_t got = waitpid(pid, &status, WNOHANG);
    if (got == pid) return true;
    if (got < 0) return false;
    if (now_ms(t0) > timeout_ms) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

double stat_value(const serve::Response& resp, const std::string& name) {
  for (const auto& [key, value] : resp.stats) {
    if (key == name) return value;
  }
  return 0.0;
}

}  // namespace

ServeChaosPlan serve_plan_for_seed(std::uint64_t seed) {
  // Decorrelate from plan_for_seed so `--seed N` flow and serve campaigns
  // exercise independent kind sequences.
  util::Rng rng(seed ^ 0x5345525645ULL);
  ServeChaosPlan plan;
  plan.seed = seed;
  static const char* kKinds[] = {"clean", "kill_worker", "hang", "kill_daemon",
                                 "client_timeout"};
  plan.kind = kKinds[rng.uniform_int(0, 4)];
  // The single op=library request admits one task per catalog cell (3), so
  // dispatch ordinals 1..3 always fire.
  plan.after_dispatch = rng.uniform_int(1, 3);
  plan.workers = rng.uniform_int(1, 2);
  if (plan.kind == "hang") {
    // Stall well past the lease so expiry -> SIGKILL -> redelivery is
    // forced; generous enough that escalated redelivery leases (x2 each)
    // outlast a clean solve even under TSan-grade slowdowns.
    plan.lease_ms = rng.uniform(250.0, 400.0);
    plan.hang_ms = plan.lease_ms * 2.2;
  } else if (plan.kind == "client_timeout") {
    // Stall past the CLIENT's per-attempt timeout but well inside the lease:
    // only the idempotent-id resend path may save this trial.
    plan.lease_ms = 5000.0;
    plan.hang_ms = rng.uniform(450.0, 700.0);
  }
  return plan;
}

aging::AgingScenario serve_chaos_scenario() {
  return aging::AgingScenario{0.5, 0.5, kYears, true};
}

std::string serve_reference_library() {
  charlib::LibraryFactory factory(chaos_factory_options());
  return liberty::write_library(factory.library(serve_chaos_scenario()));
}

ChaosTrialResult run_serve_chaos_trial(const ServeChaosPlan& plan, const std::string& work_dir,
                                       const std::string& reference_library) {
  const auto t0 = std::chrono::steady_clock::now();
  std::error_code ec;
  fs::remove_all(work_dir, ec);
  fs::create_directories(work_dir, ec);
  const std::string socket_path = serve_socket_path(plan.seed);
  const serve::ServeOptions options = serve_trial_options(plan, work_dir, socket_path);

  pid_t daemon = spawn_serve_daemon(options);
  ChaosTrialResult out;
  // Every exit funnels through here so the daemon is reaped and the socket
  // unlinked even on a failed grade.
  const auto finish = [&](std::string outcome, std::string detail) {
    if (daemon > 0) {
      ::kill(daemon, SIGKILL);
      int status = 0;
      (void)wait_daemon(daemon, 5000, status);
      daemon = -1;
    }
    ::unlink(socket_path.c_str());
    return classify({plan.seed, plan.kind}, std::move(outcome), std::move(detail), now_ms(t0));
  };
  if (daemon < 0) return finish("resume_failed", "fork failed");

  const aging::AgingScenario scenario = serve_chaos_scenario();
  serve::Request req;
  req.id = "serve-trial-" + std::to_string(plan.seed);
  req.op = "library";
  req.lambda_p = scenario.lambda_p;
  req.lambda_n = scenario.lambda_n;
  req.years = scenario.years;
  req.include_mobility = scenario.include_mobility;

  serve::ClientOptions copt;
  copt.socket_path = socket_path;
  copt.timeout_ms = plan.kind == "client_timeout" ? 150 : 60000;
  copt.max_attempts = plan.kind == "kill_daemon" ? 1 : 10;
  copt.backoff_base_ms = 25.0;
  const auto send = [&](const serve::Request& r) {
    serve::ServeClient client(copt);
    return client.request(r);
  };

  bool fault_seen = false;
  std::string fault_note;
  serve::Response resp;
  try {
    resp = send(req);
  } catch (const std::exception& e) {
    if (plan.kind != "kill_daemon") return finish("resume_failed", e.what());
    // Expected: the daemon SIGKILLed itself mid-request. Prove it, restart a
    // clean daemon over the SAME cache and socket, resend the SAME id.
    int status = 0;
    if (!wait_daemon(daemon, 5000, status) || !WIFSIGNALED(status) ||
        WTERMSIG(status) != SIGKILL) {
      daemon = -1;
      return finish("no_report", "daemon did not SIGKILL itself as planned");
    }
    fault_seen = true;
    fault_note = "daemon SIGKILL after dispatch " + std::to_string(plan.after_dispatch) +
                 ", restarted";
    serve::ServeOptions clean = options;
    clean.chaos_exit_after = 0;
    daemon = spawn_serve_daemon(clean);
    if (daemon < 0) return finish("resume_failed", "restart fork failed");
    copt.max_attempts = 10;
    try {
      resp = send(req);
    } catch (const std::exception& e2) {
      return finish("resume_failed", std::string("resend after restart failed: ") + e2.what());
    }
  }

  if (resp.status != "ok") {
    return finish("resume_failed", "response " + resp.status +
                                       (resp.error.empty() ? "" : ": " + resp.error));
  }
  if (resp.library != reference_library) {
    return finish("wrong_result", "served library differs from direct factory output");
  }

  // Fault evidence: the injected failure must actually have happened (a
  // chaos campaign whose faults silently no-op proves nothing).
  if (plan.kind != "clean" && !fault_seen) {
    serve::Request stats_req;
    stats_req.id = req.id + "-stats";
    stats_req.op = "stats";
    try {
      const serve::Response stats = send(stats_req);
      if (plan.kind == "kill_worker" && stat_value(stats, "workers_killed") >= 1.0) {
        fault_seen = true;
        fault_note = "worker SIGKILLed and respawned; task redelivered";
      } else if (plan.kind == "hang" && stat_value(stats, "leases_expired") >= 1.0) {
        fault_seen = true;
        fault_note = "lease expired on the stalled task; redelivered";
      } else if (plan.kind == "client_timeout" &&
                 stat_value(stats, "duplicate_request_hits") >= 1.0) {
        fault_seen = true;
        fault_note = "client timed out; idempotent resend deduplicated";
      }
    } catch (const std::exception& e) {
      return finish("resume_failed", std::string("stats request failed: ") + e.what());
    }
  }
  if (plan.kind != "clean" && !fault_seen) {
    return finish("no_report", "planned fault left no evidence in serve stats");
  }

  // Clean drain: op=shutdown must answer ok and the daemon must exit 0.
  serve::Request shutdown_req;
  shutdown_req.id = req.id + "-shutdown";
  shutdown_req.op = "shutdown";
  try {
    const serve::Response bye = send(shutdown_req);
    if (bye.status != "ok") return finish("resume_failed", "shutdown answered " + bye.status);
  } catch (const std::exception& e) {
    return finish("resume_failed", std::string("shutdown request failed: ") + e.what());
  }
  int status = 0;
  if (!wait_daemon(daemon, 10000, status) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return finish("resume_failed", "daemon did not drain to exit 0");
  }
  daemon = -1;
  ::unlink(socket_path.c_str());
  if (plan.kind == "clean") {
    return classify({plan.seed, plan.kind}, "ok", "served bitwise-identical to direct run",
                    now_ms(t0));
  }
  return classify({plan.seed, plan.kind}, "failed_then_resumed", fault_note, now_ms(t0));
}

ChaosCampaignResult run_serve_chaos_campaign(std::uint64_t base_seed, int n_trials,
                                             const std::string& work_root) {
  util::io::ignore_sigpipe();  // daemon restarts race client writes
  // The in-process reference every served byte is graded against.
  return run_campaign(base_seed, n_trials, work_root, serve_reference_library,
                      [](std::uint64_t seed, const std::string& work_dir,
                         const std::string& reference_library) {
                        return run_serve_chaos_trial(serve_plan_for_seed(seed), work_dir,
                                                     reference_library);
                      });
}

// ---------------------------------------------------------------------------
// Fleet campaign
// ---------------------------------------------------------------------------

namespace {

std::string fleet_socket_path(std::uint64_t seed, char which) {
  return "/tmp/rwfleet_" + std::to_string(::getpid()) + "_" + std::to_string(seed) + "_" +
         which + ".sock";
}

/// Baseline options for one fleet member: shared cache under `work_dir`, a
/// fast steal cadence (the whole point of the trial), private socket.
serve::ServeOptions fleet_daemon_options(const std::string& work_dir,
                                         const std::string& socket_path, int workers) {
  serve::ServeOptions o;
  o.socket_path = socket_path;
  o.workers = workers;
  o.queue_max = 16;
  o.backoff_base_ms = 25.0;
  o.steal_interval_ms = 40.0;
  o.factory = chaos_factory_options();
  o.factory.cache_dir = work_dir + "/cache";  // the SHARED data plane
  return o;
}

/// Polls `op=stats` on the daemon at `socket_path` until `counter` reaches
/// `at_least` or `timeout_ms` elapses; returns the last observed value.
double poll_stat(const std::string& socket_path, const std::string& counter, double at_least,
                 int timeout_ms) {
  serve::ClientOptions copt;
  copt.socket_path = socket_path;
  copt.timeout_ms = 2000;
  copt.max_attempts = 3;
  copt.backoff_base_ms = 25.0;
  const auto t0 = std::chrono::steady_clock::now();
  double last = 0.0;
  std::uint64_t n = 0;
  while (now_ms(t0) < timeout_ms) {
    serve::Request req;
    req.id = "fleet-stat-" + std::to_string(::getpid()) + "-" + std::to_string(++n);
    req.op = "stats";
    try {
      serve::ServeClient client(copt);
      last = stat_value(client.request(req), counter);
      if (last >= at_least) return last;
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return last;
}

/// Drains the daemon at `socket_path` (op=shutdown) and requires exit 0.
/// Returns an empty string on success, a grading detail otherwise.
std::string drain_daemon(pid_t& daemon, const std::string& socket_path,
                         const std::string& trial_id) {
  serve::ClientOptions copt;
  copt.socket_path = socket_path;
  copt.timeout_ms = 60000;
  copt.max_attempts = 5;
  copt.backoff_base_ms = 25.0;
  serve::Request req;
  req.id = trial_id + "-shutdown";
  req.op = "shutdown";
  try {
    serve::ServeClient client(copt);
    const serve::Response bye = client.request(req);
    if (bye.status != "ok") return "shutdown answered " + bye.status;
  } catch (const std::exception& e) {
    return std::string("shutdown request failed: ") + e.what();
  }
  int status = 0;
  if (!wait_daemon(daemon, 15000, status) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return "daemon did not drain to exit 0";
  }
  daemon = -1;
  return {};
}

}  // namespace

FleetChaosPlan fleet_plan_for_seed(std::uint64_t seed) {
  // Decorrelate from plan_for_seed and serve_plan_for_seed.
  util::Rng rng(seed ^ 0x464c454554ULL);
  FleetChaosPlan plan;
  plan.seed = seed;
  static const char* kKinds[] = {"kill_daemon_mid_load", "gc_during_char", "lease_steal"};
  plan.kind = kKinds[rng.uniform_int(0, 2)];
  // One op=library request admits one task per catalog cell (3), so
  // dispatch ordinals 1..3 always fire.
  plan.after_dispatch = rng.uniform_int(1, 3);
  plan.workers = rng.uniform_int(1, 2);
  if (plan.kind == "lease_steal") {
    // Wedge A's ONLY worker long enough that B's 40ms steal cadence plus the
    // ~120ms spool TTL always beats it, even under TSan-grade slowdowns.
    plan.workers = 1;
    plan.hang_ms = rng.uniform(1500.0, 2500.0);
  } else if (plan.kind == "gc_during_char") {
    // Briefly wedge ONE of A's two workers: the other worker's published
    // cells then sit idle mid-request long enough to clear GC's 250ms idle
    // floor, so the sweeps have a real eviction window to hit.
    plan.workers = 2;
    plan.hang_ms = rng.uniform(700.0, 1100.0);
  }
  return plan;
}

ChaosTrialResult run_serve_fleet_trial(const FleetChaosPlan& plan, const std::string& work_dir,
                                       const std::string& reference_library) {
  const auto t0 = std::chrono::steady_clock::now();
  std::error_code ec;
  fs::remove_all(work_dir, ec);
  fs::create_directories(work_dir, ec);
  const std::string socket_a = fleet_socket_path(plan.seed, 'a');
  const std::string socket_b = fleet_socket_path(plan.seed, 'b');
  const std::string trial_id = "fleet-" + std::to_string(plan.seed);

  serve::ServeOptions opt_a = fleet_daemon_options(work_dir, socket_a, plan.workers);
  serve::ServeOptions opt_b = fleet_daemon_options(work_dir, socket_b, 2);
  if (plan.kind == "kill_daemon_mid_load") {
    opt_a.chaos_exit_after = plan.after_dispatch;
  } else if (plan.kind == "gc_during_char") {
    // The hang stretches the characterization window (see the plan); the
    // default 60s spool TTL keeps B from stealing, so GC is the only
    // concurrent actor under test.
    opt_a.chaos_hang_after = 1;
    opt_a.chaos_hang_ms = plan.hang_ms;
  } else if (plan.kind == "lease_steal") {
    opt_a.chaos_hang_after = 1;
    opt_a.chaos_hang_ms = plan.hang_ms;
    opt_a.lease_ms = 60000.0;   // the wedge must NOT be rescued by lease expiry...
    opt_a.spool_ttl_ms = 120.0;  // ...only by B stealing the stale spool entries
  }

  pid_t daemon_a = spawn_serve_daemon(opt_a);
  pid_t daemon_b = daemon_a < 0 ? -1 : spawn_serve_daemon(opt_b);
  const auto finish = [&](std::string outcome, std::string detail) {
    for (pid_t* d : {&daemon_a, &daemon_b}) {
      if (*d > 0) {
        ::kill(*d, SIGKILL);
        int status = 0;
        (void)wait_daemon(*d, 5000, status);
        *d = -1;
      }
    }
    ::unlink(socket_a.c_str());
    ::unlink(socket_b.c_str());
    return classify({plan.seed, plan.kind}, std::move(outcome), std::move(detail), now_ms(t0));
  };
  if (daemon_a < 0 || daemon_b < 0) return finish("resume_failed", "fork failed");

  const aging::AgingScenario scenario = serve_chaos_scenario();
  serve::Request req;
  req.id = trial_id;
  req.op = "library";
  req.lambda_p = scenario.lambda_p;
  req.lambda_n = scenario.lambda_n;
  req.years = scenario.years;
  req.include_mobility = scenario.include_mobility;

  serve::ClientOptions copt;
  copt.socket_path = socket_a;
  copt.timeout_ms = 120000;
  copt.max_attempts = plan.kind == "kill_daemon_mid_load" ? 1 : 10;
  copt.backoff_base_ms = 25.0;

  std::string fault_note;
  serve::Response resp;

  if (plan.kind == "kill_daemon_mid_load") {
    // A dies mid-request; B must ADOPT A's spooled work, and the client's
    // idempotent resend of the SAME id to B must finish the job.
    try {
      serve::ServeClient client(copt);
      resp = client.request(req);
      return finish("no_report", "request to doomed daemon A unexpectedly succeeded");
    } catch (const std::exception&) {
    }
    int status = 0;
    if (!wait_daemon(daemon_a, 10000, status) || !WIFSIGNALED(status) ||
        WTERMSIG(status) != SIGKILL) {
      daemon_a = -1;
      return finish("no_report", "daemon A did not SIGKILL itself as planned");
    }
    daemon_a = -1;
    ::unlink(socket_a.c_str());
    const double adopted = poll_stat(socket_b, "tasks_adopted", 1.0, 30000);
    if (adopted < 1.0) {
      return finish("no_report", "daemon B never adopted the dead peer's spooled work");
    }
    copt.socket_path = socket_b;
    copt.max_attempts = 10;
    try {
      serve::ServeClient client(copt);
      resp = client.request(req);
    } catch (const std::exception& e) {
      return finish("resume_failed", std::string("resend to surviving peer failed: ") + e.what());
    }
    fault_note = "daemon A SIGKILLed after dispatch " + std::to_string(plan.after_dispatch) +
                 "; B adopted its spooled work and served the same id";
  } else if (plan.kind == "gc_during_char") {
    // A characterizes while B's max_age_ms=0 sweeps evict entries from under
    // it; re-characterization is deterministic, so bytes must not change.
    const std::string served_path = work_dir + "/served.lib";
    const std::string helper_err_path = work_dir + "/helper_err.txt";
    const pid_t helper = fork();
    if (helper == 0) {
      cancel_token().clear();
      int code = 1;
      std::string err = "unknown";
      try {
        serve::ServeClient client(copt);
        const serve::Response r = client.request(req);
        if (r.status == "ok" && util::write_file_atomic_nothrow(served_path, r.library)) {
          code = 0;
        } else {
          err = "response " + r.status + (r.error.empty() ? "" : ": " + r.error);
        }
      } catch (const std::exception& e) {
        err = e.what();
      } catch (...) {
      }
      if (code != 0) (void)util::write_file_atomic_nothrow(helper_err_path, err);
      _exit(code);
    }
    if (helper < 0) return finish("resume_failed", "helper fork failed");
    serve::ClientOptions gopt;
    gopt.socket_path = socket_b;
    gopt.timeout_ms = 10000;
    gopt.max_attempts = 3;
    gopt.backoff_base_ms = 25.0;
    double evicted = 0.0;
    std::uint64_t sweeps = 0;
    int helper_status = 0;
    for (;;) {
      const pid_t got = waitpid(helper, &helper_status, WNOHANG);
      if (got == helper) break;
      // A BOUNDED burst of max_age_ms=0 sweeps: enough overlap with the
      // characterization window to evict freshly published entries (the
      // fault under test), but not an unbounded hammer — GC's own 250ms
      // idle floor plus the daemon's assembly-retry budget guarantee
      // convergence only when the sweeping eventually stops or slows. The
      // spacing must exceed the floor so published-then-idle entries are
      // actually eligible before the burst runs out.
      if (sweeps < 10) {
        serve::Request gc;
        gc.id = trial_id + "-gc-" + std::to_string(++sweeps);
        gc.op = "gc";
        gc.max_age_ms = 0.0;
        try {
          serve::ServeClient client(gopt);
          const serve::Response r = client.request(gc);
          if (r.status == "ok") evicted += stat_value(r, "gc_evicted");
        } catch (const std::exception&) {
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(sweeps < 10 ? 300 : 50));
      if (now_ms(t0) > 120000.0) {
        ::kill(helper, SIGKILL);
        (void)waitpid(helper, &helper_status, 0);
        return finish("resume_failed", "characterization under concurrent GC never finished");
      }
    }
    if (!WIFEXITED(helper_status) || WEXITSTATUS(helper_status) != 0) {
      std::string why = "client failed while GC swept the shared cache";
      std::ifstream err_in(helper_err_path, std::ios::binary);
      if (err_in) {
        std::ostringstream eos;
        eos << err_in.rdbuf();
        if (!eos.str().empty()) why += ": " + eos.str();
      }
      return finish("resume_failed", why);
    }
    std::ifstream in(served_path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    resp.status = "ok";
    resp.library = os.str();
    if (evicted >= 1.0) {
      fault_note = "GC evicted " + std::to_string(static_cast<long>(evicted)) +
                   " entries mid-characterization; bytes unchanged";
    }
  } else {  // lease_steal
    // A's only worker wedges on task 1 with a lease too long to expire; B
    // must STEAL the stale spooled tasks and publish them to the shared
    // cache, which A then serves from disk.
    try {
      serve::ServeClient client(copt);
      resp = client.request(req);
    } catch (const std::exception& e) {
      return finish("resume_failed", std::string("request to wedged daemon failed: ") + e.what());
    }
    const double stolen = poll_stat(socket_b, "tasks_stolen", 1.0, 5000);
    if (stolen < 1.0) {
      return finish("no_report", "daemon B never stole the wedged peer's spooled work");
    }
    fault_note = "A's worker wedged " + std::to_string(static_cast<long>(plan.hang_ms)) +
                 "ms; B stole the stale spool entries";
  }

  if (resp.status != "ok") {
    return finish("resume_failed", "response " + resp.status +
                                       (resp.error.empty() ? "" : ": " + resp.error));
  }
  if (resp.library != reference_library) {
    return finish("wrong_result", "fleet-served library differs from direct factory output");
  }

  // Clean drain of every survivor: op=shutdown must answer ok, exit 0.
  if (daemon_a > 0) {
    const std::string err = drain_daemon(daemon_a, socket_a, trial_id + "-a");
    if (!err.empty()) return finish("resume_failed", "daemon A: " + err);
    ::unlink(socket_a.c_str());
  }
  const std::string err = drain_daemon(daemon_b, socket_b, trial_id + "-b");
  if (!err.empty()) return finish("resume_failed", "daemon B: " + err);
  ::unlink(socket_b.c_str());

  if (fault_note.empty()) {
    return classify({plan.seed, plan.kind}, "ok",
                    "fleet served bitwise-identical output (fault window missed)", now_ms(t0));
  }
  return classify({plan.seed, plan.kind}, "failed_then_resumed", fault_note, now_ms(t0));
}

ChaosCampaignResult run_serve_fleet_campaign(std::uint64_t base_seed, int n_trials,
                                             const std::string& work_root) {
  util::io::ignore_sigpipe();  // daemon deaths race client writes
  return run_campaign(base_seed, n_trials, work_root, serve_reference_library,
                      [](std::uint64_t seed, const std::string& work_dir,
                         const std::string& reference_library) {
                        return run_serve_fleet_trial(fleet_plan_for_seed(seed), work_dir,
                                                     reference_library);
                      });
}

}  // namespace rw::flow
