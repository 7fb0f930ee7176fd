#include "serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <system_error>
#include <vector>

#include "cells/catalog.hpp"
#include "charlib/characterizer.hpp"
#include "flow/cancel.hpp"
#include "liberty/writer.hpp"
#include "serve/gc.hpp"
#include "serve/ops.hpp"
#include "serve/protocol.hpp"
#include "serve/spool.hpp"
#include "serve/worker.hpp"
#include "util/atomic_file.hpp"
#include "util/io.hpp"
#include "util/json.hpp"
#include "util/number.hpp"
#include "util/proc_lease.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace rw::serve {

namespace fs = std::filesystem;

namespace {

double now_ms() {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SIGCHLD self-pipe: the handler may only write a byte; the poll loop sees
/// the pipe readable and reaps synchronously.
volatile std::sig_atomic_t g_sigchld_fd = -1;

extern "C" void on_sigchld(int) {
  const int fd = g_sigchld_fd;
  if (fd >= 0) {
    const char byte = 'c';
    [[maybe_unused]] const ssize_t rc = ::write(fd, &byte, 1);
  }
}

}  // namespace

ServeOptions ServeOptions::from_env() {
  ServeOptions o;
  if (const char* env = std::getenv("RW_SERVE_SOCKET"); env != nullptr && *env != '\0') {
    o.socket_path = env;
  }
  o.workers = util::env_number("RW_SERVE_WORKERS", o.workers);
  if (o.workers < 1) o.workers = 1;
  o.lease_ms = util::env_number("RW_SERVE_LEASE_MS", o.lease_ms);
  o.queue_max = util::env_number("RW_SERVE_QUEUE_MAX", o.queue_max);
  o.steal_interval_ms = util::env_number("RW_SERVE_STEAL_MS", o.steal_interval_ms);
  o.spool_ttl_ms = util::env_number("RW_SERVE_SPOOL_TTL_MS", o.spool_ttl_ms);
  o.op_max = util::env_number("RW_SERVE_OP_MAX", o.op_max);
  if (o.op_max < 1) o.op_max = 1;
  o.op_deadline_ms = util::env_number("RW_SERVE_OP_DEADLINE_MS", o.op_deadline_ms);
  o.gc_max_age_ms = util::env_number("RW_SERVE_GC_MAX_AGE_MS", o.gc_max_age_ms);
  o.chaos_kill_worker_after = util::env_number<long>("RW_SERVE_CHAOS_KILL_AFTER_DISPATCH", 0);
  o.chaos_exit_after = util::env_number<long>("RW_SERVE_CHAOS_EXIT_AFTER_DISPATCH", 0);
  o.chaos_hang_after = util::env_number<long>("RW_SERVE_CHAOS_HANG_AFTER_DISPATCH", 0);
  o.chaos_hang_ms = util::env_number("RW_SERVE_CHAOS_HANG_MS", 0.0);
  return o;
}

std::vector<std::pair<std::string, double>> ServeStats::as_pairs() const {
  return {
      {"requests", static_cast<double>(requests)},
      {"responses_ok", static_cast<double>(responses_ok)},
      {"responses_error", static_cast<double>(responses_error)},
      {"responses_overloaded", static_cast<double>(responses_overloaded)},
      {"responses_draining", static_cast<double>(responses_draining)},
      {"duplicate_request_hits", static_cast<double>(duplicate_request_hits)},
      {"tasks_admitted", static_cast<double>(tasks_admitted)},
      {"task_dedup_hits", static_cast<double>(task_dedup_hits)},
      {"cache_hits", static_cast<double>(cache_hits)},
      {"dispatches", static_cast<double>(dispatches)},
      {"tasks_done", static_cast<double>(tasks_done)},
      {"tasks_failed", static_cast<double>(tasks_failed)},
      {"redeliveries", static_cast<double>(redeliveries)},
      {"leases_expired", static_cast<double>(leases_expired)},
      {"workers_killed", static_cast<double>(workers_killed)},
      {"workers_died", static_cast<double>(workers_died)},
      {"workers_respawned", static_cast<double>(workers_respawned)},
      {"quarantined", static_cast<double>(quarantined)},
      {"tasks_spooled", static_cast<double>(tasks_spooled)},
      {"tasks_adopted", static_cast<double>(tasks_adopted)},
      {"tasks_stolen", static_cast<double>(tasks_stolen)},
      {"ops_admitted", static_cast<double>(ops_admitted)},
      {"ops_done", static_cast<double>(ops_done)},
      {"ops_failed", static_cast<double>(ops_failed)},
      {"ops_cancelled", static_cast<double>(ops_cancelled)},
      {"ops_expired", static_cast<double>(ops_expired)},
      {"gc_sweeps", static_cast<double>(gc_sweeps)},
      {"gc_evicted", static_cast<double>(gc_evicted)},
      {"gc_skipped_leased", static_cast<double>(gc_skipped_leased)},
      {"gc_skipped_quarantined", static_cast<double>(gc_skipped_quarantined)},
      {"gc_tombstones_completed", static_cast<double>(gc_tombstones_completed)},
  };
}

struct Server::Impl {
  ServeOptions& opt;
  ServeStats& stats;

  std::unique_ptr<charlib::LibraryFactory> factory;  ///< disk_only assembler
  WorkerConfig worker_config;

  int listen_fd = -1;
  int chld_r = -1;
  int chld_w = -1;
  bool draining = false;
  std::string drain_reason;
  long dispatch_count = 0;  ///< lifetime dispatches (chaos trigger index)

  struct WorkerSlot {
    pid_t pid = -1;
    int fd = -1;
    std::unique_ptr<util::io::LineReader> reader;
    std::string task_key;  ///< leased task ("" = idle)
    double lease_deadline = 0.0;
    double lease_ms = 0.0;  ///< effective (escalated) lease of this dispatch
    bool dying = false;  ///< SIGKILL sent; waiting for the SIGCHLD reap
  };
  std::vector<WorkerSlot> workers;

  struct Conn {
    int fd = -1;
    std::unique_ptr<util::io::LineReader> reader;
  };
  std::vector<Conn> conns;

  /// One forked op-runner child (op=prove / op=guardband). Crash-only
  /// cancellation: deadline expiry and client disconnect are both SIGKILL;
  /// the reap path turns an unanswered death into a structured error.
  struct OpSlot {
    pid_t pid = -1;
    int fd = -1;
    std::unique_ptr<util::io::LineReader> reader;
    std::string id;     ///< request id ("" once answered)
    int conn_fd = -1;
    double deadline = 0.0;
    bool cancelled = false;  ///< client vanished; do not answer or cache
    bool expired = false;    ///< deadline blown; answer "error" at reap
  };
  std::vector<OpSlot> ops;

  std::string spool_root;       ///< "<grid dir>/spool" ("" disables the fleet plane)
  double next_steal_at = 0.0;   ///< steal-pass cadence gate

  struct Task {
    aging::AgingScenario scenario;
    std::string cell;
    int deliveries = 0;      ///< dispatch count (first delivery included)
    double not_before = 0.0; ///< backoff gate
    enum class State { kQueued, kLeased, kDone, kFailed } state = State::kQueued;
    std::string error;
    std::optional<util::FileLease> spool;  ///< our lock on the task's spool entry
  };
  std::map<std::string, Task> tasks;  ///< by "<scenario-id>/<cell>"
  std::deque<std::string> queue;      ///< kQueued keys, FIFO (each exactly once)

  struct Pending {
    Request req;
    int conn_fd = -1;  ///< -1: client vanished; result still cached by id
    std::set<std::string> waiting;
    int assembly_retries = 0;
  };
  std::map<std::string, Pending> pending;        ///< by request id
  std::map<std::string, std::string> completed;  ///< id -> response line
  std::deque<std::string> completed_order;       ///< LRU bound for `completed`

  /// Warm-path memo: assembled library payloads by "<op>|<scenario>|<cell>".
  /// Repeat hits skip the disk read + liberty parse + re-serialization.
  /// Safe across concurrent GC evictions: re-characterization is bitwise
  /// deterministic, so a memoized payload is byte-identical to a fresh
  /// reassembly of the re-published entry.
  std::map<std::string, std::string> assembled;
  std::deque<std::string> assembled_order;  ///< LRU bound for `assembled`

  explicit Impl(ServeOptions& options, ServeStats& s) : opt(options), stats(s) {}

  static std::string task_key_of(const aging::AgingScenario& scenario, const std::string& cell) {
    return scenario.id() + "/" + cell;
  }

  std::vector<std::string> cell_names() const {
    if (!opt.factory.cell_subset.empty()) return opt.factory.cell_subset;
    std::vector<std::string> names;
    names.reserve(cells::catalog().size());
    for (const auto& spec : cells::catalog()) names.push_back(spec.name);
    return names;
  }

  /// The (scenario, cell) pairs a request fans out to. Workers handle the
  /// adaptive grid internally (their factory interpolates or refines and
  /// still publishes the requested corner), so this is always the literal
  /// request × catalog product.
  std::vector<std::pair<aging::AgingScenario, std::string>> expand_pairs(const Request& req) const {
    std::vector<std::pair<aging::AgingScenario, std::string>> pairs;
    if (req.op == "characterize") {
      pairs.emplace_back(req.scenario(), req.cell);
    } else if (req.op == "library") {
      for (const auto& name : cell_names()) pairs.emplace_back(req.scenario(), name);
    } else if (req.op == "merged") {
      for (const auto& corner : req.corners) {
        const aging::AgingScenario s{corner[0], corner[1], req.years, req.include_mobility};
        for (const auto& name : cell_names()) pairs.emplace_back(s, name);
      }
    }
    return pairs;
  }

  std::size_t outstanding_tasks() const {
    std::size_t n = 0;
    for (const auto& [key, t] : tasks) {
      if (t.state == Task::State::kQueued || t.state == Task::State::kLeased) ++n;
    }
    return n;
  }

  std::size_t live_ops() const {
    std::size_t n = 0;
    for (const OpSlot& slot : ops) {
      if (slot.pid >= 0) ++n;
    }
    return n;
  }

  // -- fleet spool -----------------------------------------------------------

  static WorkerTask worker_task_of(const std::string& key, const Task& t) {
    WorkerTask wt;
    wt.task = key;
    wt.cell = t.cell;
    wt.lambda_p = t.scenario.lambda_p;
    wt.lambda_n = t.scenario.lambda_n;
    wt.years = t.scenario.years;
    wt.include_mobility = t.scenario.include_mobility;
    return wt;
  }

  /// Mirrors an admitted task into the shared spool, locked by us, so
  /// fleet peers can see it. Best-effort: a daemon that cannot spool still
  /// serves — it just cannot be adopted from.
  void spool_task(const std::string& key, Task& t) {
    if (spool_root.empty() || t.spool) return;
    t.spool = publish_spool_record(spool_path(spool_root, key), worker_task_of(key, t),
                                   opt.spool_ttl_ms);
    if (t.spool) stats.tasks_spooled += 1;
  }

  /// The fleet steal pass: take over spool entries whose lock is free (the
  /// kernel dropped a dead owner's: adopt) or that outlived their TTL while
  /// the owner wedged (steal), then run them as our own. Takeovers are
  /// arbitrated by a `.claim` lock so two survivors never double-adopt, and
  /// republish the entry under our lock so later scans see a live owner.
  void adopt_spooled_work() {
    if (spool_root.empty() || draining) return;
    const double now = now_ms();
    if (now < next_steal_at) return;
    next_steal_at = now + opt.steal_interval_ms;
    for (const std::string& path : list_spool_tasks(spool_root)) {
      // Our own entries read as held too (OFD locks conflict within one
      // process) and a lock names no pid, so recognize ours by task key.
      SpoolRecord rec;
      if (read_spool_record(path, rec)) {
        const auto it = tasks.find(rec.task.task);
        if (it != tasks.end() && it->second.spool) continue;
        if (util::held(path) && rec.age_ms <= rec.ttl_ms) continue;  // live owner in its TTL
      } else if (util::held(path)) {
        continue;
      }
      // One takeover at a time; a stealer that died mid-takeover left its
      // claim file unlocked, so it blocks nobody. A claim we cannot even
      // open is skipped, like a spool entry we cannot write.
      std::optional<util::FileLease> claim;
      try {
        claim = util::FileLease::try_acquire(path + ".claim");
      } catch (const std::system_error&) {
      }
      if (!claim) continue;
      // Re-check under the claim: the owner may have completed (file gone)
      // or a peer may have finished a takeover between our scan and the
      // claim.
      const bool owner_alive = util::held(path);
      if (!read_spool_record(path, rec)) {
        if (!owner_alive) ::unlink(path.c_str());  // unparsable and unheld: crash debris
        continue;
      }
      if (owner_alive && rec.age_ms <= rec.ttl_ms) continue;  // ~FileLease releases
      const aging::AgingScenario scenario = rec.task.scenario();
      const std::string key = task_key_of(scenario, rec.task.cell);
      if (key != rec.task.task) {  // corrupt record; keys are derived, never trusted
        ::unlink(path.c_str());
        continue;
      }
      if (const auto it = tasks.find(key); it != tasks.end()) {
        // Already tracked here (a client sent us the same work). Done or
        // failed: the spool entry is debris. In flight: take the entry
        // over so our completion unlinks it.
        if (it->second.state == Task::State::kDone || it->second.state == Task::State::kFailed) {
          ::unlink(path.c_str());
        } else {
          spool_task(key, it->second);
        }
        continue;
      }
      std::error_code ec;
      if (fs::exists(factory->cache_path(rec.task.cell, scenario), ec)) {
        // The pair was published before the owner died (e.g. by its
        // orphaned worker): adopting it is just completing the paperwork.
        ::unlink(path.c_str());
      } else if (factory->is_quarantined(scenario.id(), rec.task.cell)) {
        ::unlink(path.c_str());
      } else if (outstanding_tasks() < static_cast<std::size_t>(opt.queue_max)) {
        Task t;
        t.scenario = scenario;
        t.cell = rec.task.cell;
        spool_task(key, t);  // re-own FIRST: our lock before the claim drops
        tasks.emplace(key, std::move(t));
        queue.push_back(key);
      } else {
        continue;  // at capacity: leave the entry for a peer (or next pass)
      }
      if (owner_alive) {
        stats.tasks_stolen += 1;
      } else {
        stats.tasks_adopted += 1;
      }
    }
  }

  // -- worker lifecycle ------------------------------------------------------

  /// Child side of every fork (worker, op runner), leaving only the child's
  /// own socketpair end open. "Supervisor died" must read as EOF there,
  /// client/child fds must not leak across children, and the spool locks
  /// must die with the daemon: an orphan holding their open file
  /// descriptions would keep a SIGKILLed daemon's entries locked and block
  /// adoption. Closing (never releasing) leaves the parent's locks intact.
  void enter_child() const {
    for (const int fd : {listen_fd, chld_r, chld_w}) {
      if (fd >= 0) ::close(fd);
    }
    for (const auto& w : workers) {
      if (w.fd >= 0) ::close(w.fd);
    }
    for (const auto& c : conns) {
      if (c.fd >= 0) ::close(c.fd);
    }
    for (const auto& o : ops) {
      if (o.fd >= 0) ::close(o.fd);
    }
    for (const auto& [key, t] : tasks) {
      if (t.spool) ::close(t.spool->fd());
    }
    std::signal(SIGCHLD, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    // ^C hits the whole foreground group; the supervisor drains and tells
    // children when to exit, so they must not die out from under it.
    std::signal(SIGINT, SIG_IGN);
  }

  void spawn_worker(std::size_t slot) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      std::fprintf(stderr, "rwserved: socketpair: %s\n", std::strerror(errno));
      return;  // the slot stays dead; remaining workers carry the load
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "rwserved: fork: %s\n", std::strerror(errno));
      ::close(sv[0]);
      ::close(sv[1]);
      return;
    }
    if (pid == 0) {
      ::close(sv[0]);
      enter_child();
      worker_main(sv[1], worker_config);  // noreturn
    }
    ::close(sv[1]);
    WorkerSlot& w = workers[slot];
    w.pid = pid;
    w.fd = sv[0];
    w.reader = std::make_unique<util::io::LineReader>(sv[0]);
    w.task_key.clear();
    w.lease_deadline = 0.0;
    w.dying = false;
  }

  void close_worker_fd(WorkerSlot& w) {
    if (w.fd >= 0) ::close(w.fd);
    w.fd = -1;
    w.reader.reset();
  }

  void kill_worker(WorkerSlot& w) {
    if (w.pid >= 0 && !w.dying) {
      ::kill(w.pid, SIGKILL);
      w.dying = true;
    }
  }

  /// Reaps every dead child: a worker's leased task (if any) is re-queued
  /// with backoff and the slot respawned unless the daemon is fully
  /// drained; an op runner that died unanswered becomes a structured error.
  void reap_children() {
    for (;;) {
      int status = 0;
      const pid_t pid = ::waitpid(-1, &status, WNOHANG);
      if (pid <= 0) break;
      if (reap_worker(pid)) {
        stats.workers_died += 1;
        continue;
      }
      reap_op(pid);
    }
  }

  bool reap_worker(pid_t pid) {
    for (std::size_t slot = 0; slot < workers.size(); ++slot) {
      WorkerSlot& w = workers[slot];
      if (w.pid != pid) continue;
      close_worker_fd(w);
      w.pid = -1;
      w.dying = false;
      if (!w.task_key.empty()) {
        const std::string key = w.task_key;
        w.task_key.clear();
        requeue(key, "worker pid " + std::to_string(pid) + " died");
      }
      if (!draining || outstanding_tasks() > 0) {
        spawn_worker(slot);
        stats.workers_respawned += 1;
      }
      return true;
    }
    return false;
  }

  void reap_op(pid_t pid) {
    for (OpSlot& slot : ops) {
      if (slot.pid != pid) continue;
      slot.pid = -1;
      if (slot.fd < 0) return;  // already answered; this reap is bookkeeping
      if (!slot.cancelled && !slot.expired) {
        // A runner that replies and _exit()s immediately can be reaped
        // before its fd is polled; the reply bytes outlive the process in
        // the socketpair buffer. Drain once before classifying the exit as
        // a death.
        handle_op_readable(slot);
        if (slot.fd < 0) return;  // the reply was there after all
      }
      ::close(slot.fd);
      slot.fd = -1;
      slot.reader.reset();
      if (slot.cancelled) return;  // client gone; nothing to answer or cache
      Response resp;
      resp.id = slot.id;
      resp.status = "error";
      resp.error = slot.expired ? "op deadline exceeded; runner killed"
                                : "op runner died before replying";
      stats.responses_error += 1;
      if (slot.expired) {
        stats.ops_expired += 1;
      } else {
        stats.ops_failed += 1;
      }
      const std::string line = to_json(resp);
      // A blown deadline is cached by id (deterministic for this daemon's
      // budget); a crashed runner is NOT — the same id resent simply runs
      // again, which is the retry clients expect.
      if (slot.expired) remember_completed(resp.id, line);
      send_response(slot.conn_fd, line);
      slot.id.clear();
      slot.conn_fd = -1;
      return;
    }
  }

  // -- task state machine ----------------------------------------------------

  /// A leased task lost its worker (death, lease expiry, transient failure):
  /// back to the queue with exponential backoff, or — delivery budget
  /// exhausted — quarantined through the factory's manifest path so the
  /// requester gets a structured error, never a hang.
  void requeue(const std::string& key, const std::string& why) {
    const auto it = tasks.find(key);
    if (it == tasks.end()) return;
    Task& t = it->second;
    if (t.state != Task::State::kLeased) return;
    if (t.deliveries >= opt.max_redeliveries) {
      t.state = Task::State::kFailed;
      t.error = "serve task " + key + " failed after " + std::to_string(t.deliveries) +
                " deliveries (" + why + ")";
      stats.tasks_failed += 1;
      stats.quarantined += 1;
      factory->quarantine_pair(t.scenario.id(), t.cell, t.error);
      t.spool.reset();  // unspool
      return;
    }
    stats.redeliveries += 1;
    t.state = Task::State::kQueued;
    const int shift = t.deliveries > 0 ? t.deliveries - 1 : 0;
    t.not_before = now_ms() + opt.backoff_base_ms * static_cast<double>(1L << shift);
    queue.push_back(key);
  }

  void expire_leases() {
    const double now = now_ms();
    for (auto& w : workers) {
      if (w.pid < 0 || w.dying || w.task_key.empty() || now < w.lease_deadline) continue;
      stats.leases_expired += 1;
      stats.workers_killed += 1;
      // Crash-only: no polite cancellation protocol with a presumed-wedged
      // worker — SIGKILL, reap, respawn. The task's backoff covers the gap.
      kill_worker(w);
      const std::string key = w.task_key;
      w.task_key.clear();
      requeue(key, "lease expired after " + std::to_string(static_cast<long>(w.lease_ms)) +
                       "ms");
    }
  }

  void dispatch_ready() {
    const double now = now_ms();
    for (auto& w : workers) {
      if (w.pid < 0 || w.dying || !w.task_key.empty()) continue;
      // Scan the queue once for a task past its backoff gate.
      std::string key;
      for (std::size_t scanned = queue.size(); scanned > 0 && key.empty(); --scanned) {
        std::string candidate = std::move(queue.front());
        queue.pop_front();
        const auto it = tasks.find(candidate);
        if (it == tasks.end() || it->second.state != Task::State::kQueued) continue;
        if (it->second.not_before > now) {
          queue.push_back(std::move(candidate));
          continue;
        }
        key = std::move(candidate);
      }
      if (key.empty()) return;  // nothing ready for any remaining idle worker

      Task& t = tasks[key];
      t.state = Task::State::kLeased;
      t.deliveries += 1;
      dispatch_count += 1;
      stats.dispatches += 1;

      WorkerTask wt;
      wt.task = key;
      wt.cell = t.cell;
      wt.lambda_p = t.scenario.lambda_p;
      wt.lambda_n = t.scenario.lambda_n;
      wt.years = t.scenario.years;
      wt.include_mobility = t.scenario.include_mobility;
      if (opt.chaos_hang_after > 0 && dispatch_count == opt.chaos_hang_after) {
        wt.hang_ms = opt.chaos_hang_ms;
      }

      if (!util::io::write_all(w.fd, to_json(wt) + "\n")) {
        // Worker pipe already dead; the reap path re-queues via the lease.
        w.task_key = key;
        w.lease_deadline = now;  // expire immediately
        kill_worker(w);
        continue;
      }
      w.task_key = key;
      // The lease escalates with the delivery count (x2 each redelivery,
      // capped): a deadline tuned too tight for this machine self-corrects
      // across redeliveries instead of quarantining a healthy pair, while a
      // genuinely wedged task still exhausts its delivery budget.
      const int lease_shift = std::min(t.deliveries > 0 ? t.deliveries - 1 : 0, 6);
      w.lease_ms = opt.lease_ms * static_cast<double>(1L << lease_shift);
      w.lease_deadline = now + w.lease_ms;

      // Chaos faults fire AFTER the dispatch is on the wire, which is the
      // interesting instant: the task is leased, the worker mid-solve.
      if (opt.chaos_kill_worker_after > 0 && dispatch_count == opt.chaos_kill_worker_after) {
        stats.workers_killed += 1;
        kill_worker(w);
      }
      if (opt.chaos_exit_after > 0 && dispatch_count == opt.chaos_exit_after) {
        // The daemon itself dies mid-flight (kill -9 semantics: no drain, no
        // report, leases left behind). rwchaos restarts it and the client's
        // idempotent retry must still complete.
        ::raise(SIGKILL);
      }
    }
  }

  void on_worker_reply(WorkerSlot& w, const WorkerReply& reply) {
    if (reply.task != w.task_key) return;  // stale ack (task already re-owned)
    w.task_key.clear();
    const auto it = tasks.find(reply.task);
    if (it == tasks.end()) return;
    Task& t = it->second;
    if (reply.status == "done") {
      t.state = Task::State::kDone;
      stats.tasks_done += 1;
      t.spool.reset();  // unspool
    } else if (reply.permanent) {
      t.state = Task::State::kFailed;
      t.error = reply.error.empty() ? "worker failure" : reply.error;
      stats.tasks_failed += 1;
      stats.quarantined += 1;
      factory->quarantine_pair(t.scenario.id(), t.cell, t.error);
      t.spool.reset();  // unspool
    } else {
      // Transient (I/O, bad_alloc): the pair itself may be fine — retry.
      t.state = Task::State::kLeased;  // requeue() expects a leased task
      requeue(reply.task, "transient: " + reply.error);
    }
  }

  void handle_worker_readable(WorkerSlot& w) {
    std::string line;
    for (;;) {
      const auto st = w.reader->read_line(line, 0);
      if (st == util::io::LineReader::Status::kTimeout) return;
      if (st != util::io::LineReader::Status::kLine) {
        kill_worker(w);  // EOF/garbage: force the reap path
        return;
      }
      WorkerReply reply;
      std::string error;
      if (!parse_worker_reply(line, reply, error)) {
        kill_worker(w);
        return;
      }
      on_worker_reply(w, reply);
    }
  }

  // -- op runners (prove/guardband) ------------------------------------------

  void spawn_op_runner(const Request& req, int conn_fd) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      std::fprintf(stderr, "rwserved: socketpair: %s\n", std::strerror(errno));
      Response resp;
      resp.id = req.id;
      resp.status = "error";
      resp.error = "op runner spawn failed";
      stats.responses_error += 1;
      send_response(conn_fd, to_json(resp));
      return;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      Response resp;
      resp.id = req.id;
      resp.status = "error";
      resp.error = "op runner fork failed";
      stats.responses_error += 1;
      send_response(conn_fd, to_json(resp));
      return;
    }
    if (pid == 0) {
      ::close(sv[0]);
      enter_child();
      op_runner_main(sv[1], opt.factory, req);  // noreturn
    }
    ::close(sv[1]);
    OpSlot slot;
    slot.pid = pid;
    slot.fd = sv[0];
    slot.reader = std::make_unique<util::io::LineReader>(sv[0]);
    slot.id = req.id;
    slot.conn_fd = conn_fd;
    slot.deadline =
        now_ms() + (req.deadline_ms > 0.0 ? req.deadline_ms : opt.op_deadline_ms);
    ops.push_back(std::move(slot));
    stats.ops_admitted += 1;
  }

  void expire_ops() {
    const double now = now_ms();
    for (OpSlot& slot : ops) {
      if (slot.pid < 0 || slot.fd < 0 || slot.cancelled || slot.expired) continue;
      if (now < slot.deadline) continue;
      // Crash-only cancellation: no protocol with the runner, just SIGKILL.
      // The reap path sends the deadline error.
      slot.expired = true;
      ::kill(slot.pid, SIGKILL);
    }
  }

  void handle_op_readable(OpSlot& slot) {
    std::string line;
    const auto st = slot.reader->read_line(line, 0);
    if (st == util::io::LineReader::Status::kTimeout) return;
    if (st != util::io::LineReader::Status::kLine) {
      // EOF without a reply line: let the reap path classify it.
      if (slot.pid >= 0) ::kill(slot.pid, SIGKILL);
      return;
    }
    WorkerReply reply;
    std::string error;
    Response resp;
    resp.id = slot.id;
    if (!parse_worker_reply(line, reply, error)) {
      resp.status = "error";
      resp.error = "op runner protocol error: " + error;
      stats.ops_failed += 1;
      stats.responses_error += 1;
    } else if (reply.status == "done") {
      resp.status = "ok";
      resp.result = reply.payload;
      stats.ops_done += 1;
      stats.responses_ok += 1;
    } else {
      resp.status = "error";
      resp.error = reply.error.empty() ? "op failed" : reply.error;
      stats.ops_failed += 1;
      stats.responses_error += 1;
    }
    const std::string out = to_json(resp);
    if (!slot.cancelled) {
      remember_completed(resp.id, out);
      send_response(slot.conn_fd, out);
    }
    ::close(slot.fd);
    slot.fd = -1;
    slot.reader.reset();
    slot.id.clear();
    slot.conn_fd = -1;
  }

  // -- client plane ----------------------------------------------------------

  void accept_clients() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN or a transient accept failure: next poll retries
      }
      Conn conn;
      conn.fd = fd;
      conn.reader = std::make_unique<util::io::LineReader>(fd);
      conns.push_back(std::move(conn));
    }
  }

  void close_conn(Conn& c) {
    if (c.fd < 0) return;
    for (auto& [id, pr] : pending) {
      if (pr.conn_fd == c.fd) pr.conn_fd = -1;  // finish the work, cache the answer
    }
    // Op runners are the opposite of pending tasks: their work benefits no
    // one but the asking client, so a disconnect cancels (SIGKILL) instead
    // of finishing-and-caching. A resent id simply runs the op again.
    for (OpSlot& slot : ops) {
      if (slot.conn_fd != c.fd) continue;
      slot.conn_fd = -1;
      if (slot.pid >= 0 && slot.fd >= 0 && !slot.cancelled) {
        slot.cancelled = true;
        stats.ops_cancelled += 1;
        ::kill(slot.pid, SIGKILL);
      }
    }
    ::close(c.fd);
    c.fd = -1;
    c.reader.reset();
  }

  void send_response(int conn_fd, const std::string& line) {
    if (conn_fd < 0) return;
    if (util::io::write_all(conn_fd, line + "\n")) return;
    for (auto& c : conns) {
      if (c.fd == conn_fd) close_conn(c);
    }
  }

  void remember_completed(const std::string& id, const std::string& line) {
    if (id.empty()) return;
    if (completed.emplace(id, line).second) {
      completed_order.push_back(id);
      while (completed_order.size() > 256) {
        completed.erase(completed_order.front());
        completed_order.pop_front();
      }
    }
  }

  void remember_assembled(const std::string& key, const std::string& payload) {
    if (assembled.emplace(key, payload).second) {
      assembled_order.push_back(key);
      while (assembled_order.size() > 256) {
        assembled.erase(assembled_order.front());
        assembled_order.pop_front();
      }
    }
  }

  void finish_response(Pending& pr, Response& resp) {
    const std::string line = to_json(resp);
    remember_completed(resp.id, line);
    send_response(pr.conn_fd, line);
  }

  void handle_request(Conn& c, const std::string& line) {
    stats.requests += 1;
    Request req;
    std::string parse_error;
    Response resp;
    if (!parse_request(line, req, parse_error)) {
      resp.status = "error";
      resp.error = "bad request: " + parse_error;
      stats.responses_error += 1;
      send_response(c.fd, to_json(resp));
      return;
    }
    resp.id = req.id;

    if (req.op == "ping") {
      resp.status = "ok";
      send_response(c.fd, to_json(resp));
      return;
    }
    if (req.op == "stats") {
      resp.status = "ok";
      resp.stats = stats.as_pairs();
      resp.stats.emplace_back("queue_depth", static_cast<double>(outstanding_tasks()));
      resp.stats.emplace_back("pending_requests", static_cast<double>(pending.size()));
      resp.stats.emplace_back("draining", draining ? 1.0 : 0.0);
      send_response(c.fd, to_json(resp));
      return;
    }
    if (req.op == "shutdown") {
      resp.status = "ok";
      send_response(c.fd, to_json(resp));
      begin_drain("op=shutdown");
      return;
    }

    // Idempotent retry: a completed id replays its cached response; a
    // pending id re-attaches this connection (the original client timed out
    // and reconnected) without admitting any new work.
    if (const auto done = completed.find(req.id); done != completed.end()) {
      stats.duplicate_request_hits += 1;
      send_response(c.fd, done->second);
      return;
    }
    if (const auto p = pending.find(req.id); p != pending.end()) {
      stats.duplicate_request_hits += 1;
      p->second.conn_fd = c.fd;
      return;
    }
    for (OpSlot& slot : ops) {
      // An op already running under this id: re-attach (the client timed
      // out and reconnected) instead of forking a duplicate runner.
      if (slot.id == req.id && slot.pid >= 0 && slot.fd >= 0 && !slot.cancelled) {
        stats.duplicate_request_hits += 1;
        slot.conn_fd = c.fd;
        return;
      }
    }

    if (draining) {
      resp.status = "draining";
      resp.retry_after_ms = opt.retry_after_ms;
      stats.responses_draining += 1;
      send_response(c.fd, to_json(resp));
      return;
    }
    if (req.op == "gc") {
      GcOptions gc;
      gc.cache_dir = opt.factory.cache_dir;
      gc.max_age_ms = req.max_age_ms >= 0.0 ? req.max_age_ms : opt.gc_max_age_ms;
      const GcResult swept = gc_sweep(gc);
      stats.gc_sweeps += 1;
      stats.gc_evicted += swept.evicted;
      stats.gc_skipped_leased += swept.skipped_leased;
      stats.gc_skipped_quarantined += swept.skipped_quarantined;
      stats.gc_tombstones_completed += swept.tombstones_completed;
      resp.status = "ok";
      resp.stats = swept.as_pairs();
      stats.responses_ok += 1;
      send_response(c.fd, to_json(resp));
      return;
    }
    if (req.op == "prove" || req.op == "guardband") {
      if (req.id.empty() || req.netlist.empty()) {
        resp.status = "error";
        resp.error = "malformed " + req.op + " request (missing id/netlist)";
        stats.responses_error += 1;
        send_response(c.fd, to_json(resp));
        return;
      }
      if (live_ops() >= static_cast<std::size_t>(opt.op_max)) {
        resp.status = "overloaded";
        resp.retry_after_ms = opt.retry_after_ms;
        stats.responses_overloaded += 1;
        send_response(c.fd, to_json(resp));
        return;
      }
      spawn_op_runner(req, c.fd);
      return;
    }
    if (req.op != "characterize" && req.op != "library" && req.op != "merged") {
      resp.status = "error";
      resp.error = "unknown op \"" + req.op + "\"";
      stats.responses_error += 1;
      send_response(c.fd, to_json(resp));
      return;
    }
    if (req.id.empty() || (req.op == "characterize" && req.cell.empty()) ||
        (req.op == "merged" && req.corners.empty())) {
      resp.status = "error";
      resp.error = "malformed " + req.op + " request (missing id/cell/corners)";
      stats.responses_error += 1;
      send_response(c.fd, to_json(resp));
      return;
    }

    // Admission: one task per pair that is neither tracked, quarantined,
    // nor already on disk. The queue bound is checked BEFORE anything is
    // admitted, so an oversized request sheds atomically.
    const auto pairs = expand_pairs(req);
    std::set<std::string> waiting;
    std::vector<std::pair<aging::AgingScenario, std::string>> to_admit;
    for (const auto& [scenario, name] : pairs) {
      const std::string key = task_key_of(scenario, name);
      if (const auto t = tasks.find(key); t != tasks.end()) {
        if (t->second.state == Task::State::kQueued || t->second.state == Task::State::kLeased) {
          stats.task_dedup_hits += 1;
          waiting.insert(key);
        }
        continue;
      }
      if (factory->is_quarantined(scenario.id(), name)) continue;  // assembly reports it
      std::error_code ec;
      if (fs::exists(factory->cache_path(name, scenario), ec)) {
        stats.cache_hits += 1;
        continue;
      }
      to_admit.emplace_back(scenario, name);
    }
    if (outstanding_tasks() + to_admit.size() > static_cast<std::size_t>(opt.queue_max)) {
      resp.status = "overloaded";
      resp.retry_after_ms = opt.retry_after_ms;
      stats.responses_overloaded += 1;
      send_response(c.fd, to_json(resp));
      return;
    }
    for (const auto& [scenario, name] : to_admit) {
      const std::string key = task_key_of(scenario, name);
      Task t;
      t.scenario = scenario;
      t.cell = name;
      spool_task(key, t);  // visible to fleet peers before the first dispatch
      tasks.emplace(key, std::move(t));
      queue.push_back(key);
      waiting.insert(key);
      stats.tasks_admitted += 1;
    }
    Pending pr;
    pr.req = req;
    pr.conn_fd = c.fd;
    pr.waiting = std::move(waiting);
    pending.emplace(req.id, std::move(pr));
    // resolve_pending() answers immediately when nothing is waiting.
  }

  void handle_conn_readable(Conn& c) {
    std::string line;
    for (;;) {
      if (c.fd < 0) return;
      const auto st = c.reader->read_line(line, 0);
      if (st == util::io::LineReader::Status::kTimeout) return;
      if (st != util::io::LineReader::Status::kLine) {
        close_conn(c);
        return;
      }
      handle_request(c, line);
    }
  }

  // -- assembly --------------------------------------------------------------

  /// Builds the response payload from the disk cache. Returns false when a
  /// cache entry vanished and the pair was re-queued (request stays
  /// pending).
  bool assemble(Pending& pr, Response& resp) {
    const Request& req = pr.req;
    resp.id = req.id;
    try {
      if (req.op == "characterize") {
        const std::string memo_key = "c|" + req.scenario().id() + "|" + req.cell;
        if (const auto hit = assembled.find(memo_key); hit != assembled.end()) {
          resp.library = hit->second;
          // Keep the GC idle signal honest: a memo hit is still a cache hit,
          // so refresh the usage stamp's mtime (no-op if GC evicted it; the
          // memoized bytes stay correct either way).
          const std::string stamp = charlib::LibraryFactory::usage_stamp_path(
              factory->cache_path(req.cell, req.scenario()));
          (void)::utimensat(AT_FDCWD, stamp.c_str(), nullptr, 0);
        } else {
          const liberty::Cell& cell = factory->cell(req.cell, req.scenario());
          liberty::Library lib("reliaware_" + req.scenario().id());
          lib.add_cell(cell);
          resp.library = liberty::write_library(lib);
          remember_assembled(memo_key, resp.library);
        }
      } else if (req.op == "library") {
        const std::string memo_key = "l|" + req.scenario().id();
        if (const auto hit = assembled.find(memo_key); hit != assembled.end()) {
          resp.library = hit->second;
        } else {
          resp.library = liberty::write_library(factory->library(req.scenario()));
          remember_assembled(memo_key, resp.library);
        }
      } else {
        std::vector<aging::AgingScenario> scenarios;
        scenarios.reserve(req.corners.size());
        for (const auto& corner : req.corners) {
          scenarios.push_back(
              aging::AgingScenario{corner[0], corner[1], req.years, req.include_mobility});
        }
        resp.library = liberty::write_library(factory->merged(scenarios));
      }
      resp.status = "ok";
      stats.responses_ok += 1;
      return true;
    } catch (const charlib::CacheMissError& e) {
      // The entry this request waited for is gone (GC eviction, torn file
      // removed by a reader). Not a failure — re-queue just that pair. The
      // budget is generous because an aggressive concurrent GC (max_age 0)
      // can legitimately evict freshly published entries several times
      // before an assembly wins the race; each retry re-characterizes
      // bitwise-identically, so patience is correctness here.
      if (pr.assembly_retries < 8) {
        pr.assembly_retries += 1;
        const std::string key = e.scenario_id() + "/" + e.cell();
        for (const auto& [scenario, name] : expand_pairs(req)) {
          if (task_key_of(scenario, name) != key) continue;
          auto [it, inserted] = tasks.emplace(key, Task{});
          Task& t = it->second;
          t.scenario = scenario;
          t.cell = name;
          if (inserted || t.state == Task::State::kDone) {
            t.state = Task::State::kQueued;
            t.not_before = 0.0;
            spool_task(key, t);
            queue.push_back(key);
            stats.tasks_admitted += 1;
          }
          pr.waiting.insert(key);
          return false;
        }
      }
      resp.status = "error";
      resp.error = e.what();
      stats.responses_error += 1;
      return true;
    } catch (const std::exception& e) {
      // Quarantined cell (CharError chain) or any other assembly failure:
      // a structured per-request error, never a hang.
      resp.status = "error";
      resp.error = e.what();
      stats.responses_error += 1;
      return true;
    }
  }

  void resolve_pending() {
    for (auto it = pending.begin(); it != pending.end();) {
      Pending& pr = it->second;
      for (auto k = pr.waiting.begin(); k != pr.waiting.end();) {
        const auto t = tasks.find(*k);
        const bool resolved = t == tasks.end() || t->second.state == Task::State::kDone ||
                              t->second.state == Task::State::kFailed;
        k = resolved ? pr.waiting.erase(k) : std::next(k);
      }
      if (!pr.waiting.empty()) {
        ++it;
        continue;
      }
      Response resp;
      if (!assemble(pr, resp)) {
        ++it;  // re-queued a vanished pair; still pending
        continue;
      }
      finish_response(pr, resp);
      it = pending.erase(it);
    }
  }

  // -- drain & report --------------------------------------------------------

  void begin_drain(const std::string& reason) {
    if (draining) return;
    draining = true;
    drain_reason = reason;
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
      ::unlink(opt.socket_path.c_str());
    }
  }

  void shutdown_workers() {
    WorkerTask bye;
    bye.exit_now = true;
    const std::string line = to_json(bye) + "\n";
    for (auto& w : workers) {
      if (w.pid < 0) continue;
      if (w.fd >= 0 && !w.dying) {
        if (!util::io::write_all(w.fd, line)) kill_worker(w);
      } else {
        kill_worker(w);
      }
    }
    for (auto& w : workers) {
      if (w.pid < 0) continue;
      int status = 0;
      while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
      }
      close_worker_fd(w);
      w.pid = -1;
    }
  }

  void write_report(const std::string& status) {
    if (opt.report_path.empty()) return;
    std::string out = "{\n  \"flow\": \"rwserved\",\n  \"status\": ";
    util::append_json_string(out, status);
    out += ",\n  \"reason\": ";
    util::append_json_string(out, drain_reason);
    out += ",\n  \"stats\": {";
    bool first = true;
    for (const auto& [name, value] : stats.as_pairs()) {
      out += first ? "\n    " : ",\n    ";
      first = false;
      util::append_json_string(out, name);
      out += ": " + util::json::format_double(value);
    }
    out += "\n  }\n}\n";
    (void)util::write_file_atomic_nothrow(opt.report_path, out);
  }
};

Server::Server(ServeOptions options) : options_(std::move(options)) {}

Server::~Server() = default;

int Server::run() {
  if (options_.factory.cache_dir.empty()) {
    std::fprintf(stderr, "rwserved: a disk cache directory is required (--cache/$RW_LIBCACHE)\n");
    return 2;
  }
  if (options_.socket_path.empty()) {
    std::fprintf(stderr, "rwserved: a socket path is required (--socket/$RW_SERVE_SOCKET)\n");
    return 2;
  }
  util::io::ignore_sigpipe();
  // Workers are forked from this process: the shared pool must be size 1
  // (inline, zero threads) BEFORE the first fork, or children would inherit
  // dead worker threads and deadlock on the pool mutex. Worker parallelism
  // comes from the process count, which also keeps solver results bitwise
  // identical to a single-threaded direct run.
  util::set_shared_thread_count(1);

  Impl impl(options_, stats_);
  impl_ = &impl;

  try {
    impl.listen_fd = util::io::listen_unix(options_.socket_path, 64);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rwserved: %s\n", e.what());
    impl_ = nullptr;
    return 2;
  }
  // Nonblocking so accept_clients() can drain the whole backlog per wakeup
  // and return on EAGAIN instead of wedging the event loop.
  util::io::set_nonblocking(impl.listen_fd, true);

  {
    charlib::LibraryFactory::Options supervisor = options_.factory;
    supervisor.disk_only = true;
    supervisor.use_manifest = true;
    impl.factory = std::make_unique<charlib::LibraryFactory>(supervisor);
  }
  impl.worker_config.factory = options_.factory;
  impl.spool_root = spool_dir(impl.factory->grid_cache_dir());

  int chld[2];
  if (::pipe(chld) != 0) {
    std::fprintf(stderr, "rwserved: pipe: %s\n", std::strerror(errno));
    ::close(impl.listen_fd);
    impl_ = nullptr;
    return 2;
  }
  impl.chld_r = chld[0];
  impl.chld_w = chld[1];
  util::io::set_nonblocking(impl.chld_r, true);
  util::io::set_nonblocking(impl.chld_w, true);
  g_sigchld_fd = impl.chld_w;
  std::signal(SIGCHLD, on_sigchld);

  impl.workers.resize(static_cast<std::size_t>(options_.workers));
  for (std::size_t i = 0; i < impl.workers.size(); ++i) impl.spawn_worker(i);

  for (;;) {
    if (!impl.draining && flow::poll_cancellation()) {
      impl.begin_drain(flow::cancel_token().reason());
    }
    impl.expire_leases();
    impl.expire_ops();
    impl.adopt_spooled_work();
    impl.dispatch_ready();
    impl.resolve_pending();
    if (impl.draining && impl.pending.empty() && impl.outstanding_tasks() == 0 &&
        impl.live_ops() == 0) {
      break;
    }

    // Poll set: [0]=sigchld pipe, optional listen fd, then one entry per
    // live conn/worker/op-runner. `conn_at`/`worker_at`/`op_at` map pollfd
    // index -> container index (container indices stay valid within one
    // pass: conns/ops only grow via accept/spawn and are swept at the end,
    // workers never resize).
    std::vector<pollfd> fds;
    std::vector<std::size_t> conn_at(impl.conns.size(), SIZE_MAX);
    std::vector<std::size_t> worker_at(impl.workers.size(), SIZE_MAX);
    std::vector<std::size_t> op_at(impl.ops.size(), SIZE_MAX);
    fds.push_back(pollfd{impl.chld_r, POLLIN, 0});
    const std::size_t listen_at = fds.size();
    if (impl.listen_fd >= 0) fds.push_back(pollfd{impl.listen_fd, POLLIN, 0});
    for (std::size_t i = 0; i < impl.conns.size(); ++i) {
      if (impl.conns[i].fd < 0) continue;
      conn_at[i] = fds.size();
      fds.push_back(pollfd{impl.conns[i].fd, POLLIN, 0});
    }
    for (std::size_t i = 0; i < impl.workers.size(); ++i) {
      if (impl.workers[i].fd < 0) continue;
      worker_at[i] = fds.size();
      fds.push_back(pollfd{impl.workers[i].fd, POLLIN, 0});
    }
    for (std::size_t i = 0; i < impl.ops.size(); ++i) {
      if (impl.ops[i].fd < 0) continue;
      op_at[i] = fds.size();
      fds.push_back(pollfd{impl.ops[i].fd, POLLIN, 0});
    }

    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 25);
    if (rc < 0) {
      if (errno == EINTR) continue;  // SIGCHLD/SIGTERM landed; loop handles it
      break;
    }
    if (rc == 0) continue;

    if ((fds[0].revents & POLLIN) != 0) {
      char drainbuf[64];
      while (util::io::read_some(impl.chld_r, drainbuf, sizeof drainbuf) > 0) {
      }
    }
    // Reap opportunistically every wakeup: the self-pipe byte can be lost to
    // a full pipe, and WNOHANG makes this free.
    impl.reap_children();

    if (impl.listen_fd >= 0 && (fds[listen_at].revents & POLLIN) != 0) impl.accept_clients();

    for (std::size_t i = 0; i < conn_at.size(); ++i) {
      if (conn_at[i] == SIZE_MAX) continue;
      Impl::Conn& c = impl.conns[i];
      // The fd must still be the one polled: a conn closed earlier this
      // pass (fd -1) or replaced must not consume stale revents.
      if (c.fd != fds[conn_at[i]].fd) continue;
      if ((fds[conn_at[i]].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        impl.handle_conn_readable(c);
      }
    }
    for (std::size_t i = 0; i < worker_at.size(); ++i) {
      if (worker_at[i] == SIZE_MAX) continue;
      Impl::WorkerSlot& w = impl.workers[i];
      if (w.fd != fds[worker_at[i]].fd) continue;
      if ((fds[worker_at[i]].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        impl.handle_worker_readable(w);
      }
    }
    for (std::size_t i = 0; i < op_at.size(); ++i) {
      if (op_at[i] == SIZE_MAX) continue;
      Impl::OpSlot& slot = impl.ops[i];
      if (slot.fd != fds[op_at[i]].fd) continue;
      if ((fds[op_at[i]].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        impl.handle_op_readable(slot);
      }
    }
    // Drop closed connections and fully retired op runners.
    std::erase_if(impl.conns, [](const Impl::Conn& c) { return c.fd < 0; });
    std::erase_if(impl.ops,
                  [](const Impl::OpSlot& o) { return o.pid < 0 && o.fd < 0; });
  }

  // Normally drained to zero before the loop exits; a poll failure can
  // leave runners behind — crash-only cleanup, as everywhere.
  for (auto& slot : impl.ops) {
    if (slot.pid < 0) continue;
    ::kill(slot.pid, SIGKILL);
    int status = 0;
    while (::waitpid(slot.pid, &status, 0) < 0 && errno == EINTR) {
    }
    slot.pid = -1;
    if (slot.fd >= 0) ::close(slot.fd);
    slot.fd = -1;
  }
  impl.shutdown_workers();
  std::signal(SIGCHLD, SIG_DFL);
  g_sigchld_fd = -1;
  ::close(impl.chld_r);
  ::close(impl.chld_w);
  for (auto& c : impl.conns) impl.close_conn(c);
  if (impl.listen_fd >= 0) {
    ::close(impl.listen_fd);
    ::unlink(options_.socket_path.c_str());
  }
  impl.write_report("ok");
  impl_ = nullptr;
  return 0;
}

}  // namespace rw::serve
