#pragma once

/// \file server.hpp
/// rwserved: a crash-tolerant characterization daemon. One single-threaded
/// supervisor accepts NDJSON requests on a Unix-domain socket, shards the
/// implied (scenario, cell) work across fork-based worker processes, and
/// serves every result from the content-addressed disk cache the whole
/// toolchain already shares.
///
/// Failure model (crash-only, everywhere):
///  * Workers hold a per-task LEASE with a deadline. A worker that dies
///    (SIGKILL mid-solve -> SIGCHLD reap -> respawn) or stalls past the
///    deadline (SIGKILL by the supervisor) gets its task re-queued with
///    exponential backoff; after `max_redeliveries` deliveries the pair is
///    quarantined through the factory's manifest path — the same "failed"
///    record an in-process CharError writes — and the request gets a
///    structured error instead of hanging.
///  * The daemon itself is expendable: all durable state is the disk cache
///    plus manifest, both published via atomic temp+rename(+fsync), so
///    kill -9 and restart loses only in-flight leases (the kernel frees
///    their locks for the next leader). Clients resend the same request id and the work
///    resumes where the cache left off.
///  * Overload degrades, never collapses: a bounded task queue; requests
///    that would exceed it get an "overloaded" response with a Retry-After
///    hint. SIGTERM (or op=shutdown) drains: admitted work finishes, new
///    requests get "draining", workers exit cleanly, a serve report is
///    written, exit 0.
///  * Fleets need no coordinator: daemons sharing `--cache` mirror queued
///    work as spool files (see spool.hpp) and periodically adopt a dead
///    peer's entries or steal a wedged peer's, arbitrated with the same
///    kernel-held lease locks the cache itself uses. A client holding a
///    request id can resend it to ANY peer; the disk cache is the shared
///    truth, so the answer is bitwise identical.
///  * Higher-level ops (op=prove / op=guardband) run in forked op-runner
///    children with a per-op deadline; a blown deadline or a client
///    disconnect is SIGKILL on the runner (crash-only cancellation — the
///    only durable side effect is cells published to the shared cache).
///  * op=gc / --gc sweep the cache with temp+rename tombstones (gc.hpp):
///    age/usage-aware, never touches leased or quarantined/spooled pairs,
///    and kill -9 mid-sweep is completed by the next sweep.
///
/// The supervisor NEVER characterizes in-process (its factory runs
/// `disk_only`); a vanished cache entry surfaces as CacheMissError and is
/// simply re-queued to a worker.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "charlib/factory.hpp"

namespace rw::serve {

struct ServeOptions {
  /// Unix-domain socket path (sun_path caps it at ~100 bytes; keep short).
  std::string socket_path;
  /// Worker process count ($RW_SERVE_WORKERS).
  int workers = 2;
  /// Per-task lease deadline ($RW_SERVE_LEASE_MS): a dispatch unacked for
  /// this long is presumed wedged; the worker is killed and the task
  /// re-queued. Redeliveries double the lease (capped at 64x) so a value
  /// tuned too tight for the machine self-corrects instead of quarantining
  /// a healthy pair.
  double lease_ms = 10000.0;
  /// Bound on queued+leased tasks ($RW_SERVE_QUEUE_MAX); beyond it requests
  /// shed as "overloaded".
  int queue_max = 64;
  /// Deliveries per task before quarantine (first dispatch counts as one).
  int max_redeliveries = 3;
  /// Redelivery backoff: base * 2^(deliveries-1), deterministic.
  double backoff_base_ms = 50.0;
  /// Retry-After hint handed to shed clients.
  double retry_after_ms = 250.0;
  /// Fleet steal cadence ($RW_SERVE_STEAL_MS): how often the spool is
  /// scanned for a dead peer's (adopt) or a wedged peer's (steal) entries.
  double steal_interval_ms = 1000.0;
  /// TTL written into this daemon's spool entries ($RW_SERVE_SPOOL_TTL_MS):
  /// peers treat an entry older than its TTL as stealable even when the
  /// owner is alive. Duplicated dispatch is benign (the per-pair cache
  /// lease still serializes SPICE), so this only tunes steal latency.
  double spool_ttl_ms = 60000.0;
  /// Concurrent op-runner children ($RW_SERVE_OP_MAX); beyond it prove/
  /// guardband requests shed as "overloaded".
  int op_max = 2;
  /// Default per-op wall deadline ($RW_SERVE_OP_DEADLINE_MS); the request's
  /// own `deadline_ms` (when > 0) wins.
  double op_deadline_ms = 120000.0;
  /// Default op=gc idle-age threshold ($RW_SERVE_GC_MAX_AGE_MS).
  double gc_max_age_ms = 7.0 * 24.0 * 3600.0 * 1000.0;
  /// Written on drain ("" = no report): counters + drain status JSON.
  std::string report_path;
  /// Supervisor/worker factory options; `cache_dir` must be non-empty (the
  /// disk cache IS the service's data plane).
  charlib::LibraryFactory::Options factory = charlib::LibraryFactory::default_options();

  // Chaos knobs (all default off; env-wired so rwchaos drives the REAL
  // binary): fire on the k-th task dispatch of the daemon's lifetime.
  long chaos_kill_worker_after = 0;  ///< $RW_SERVE_CHAOS_KILL_AFTER_DISPATCH: SIGKILL that worker
  long chaos_exit_after = 0;         ///< $RW_SERVE_CHAOS_EXIT_AFTER_DISPATCH: daemon SIGKILLs itself
  long chaos_hang_after = 0;         ///< $RW_SERVE_CHAOS_HANG_AFTER_DISPATCH: stall that task...
  double chaos_hang_ms = 0.0;        ///< ...by $RW_SERVE_CHAOS_HANG_MS

  /// Env-driven defaults (all the $RW_SERVE_* knobs above).
  static ServeOptions from_env();
};

/// Monotonic counters, exposed via op=stats and the drain report. Doubles
/// on the wire; integral here.
struct ServeStats {
  std::uint64_t requests = 0;
  std::uint64_t responses_ok = 0;
  std::uint64_t responses_error = 0;
  std::uint64_t responses_overloaded = 0;
  std::uint64_t responses_draining = 0;
  std::uint64_t duplicate_request_hits = 0;  ///< same id served from cache/attach
  std::uint64_t tasks_admitted = 0;
  std::uint64_t task_dedup_hits = 0;  ///< pair already queued/leased/done for another request
  std::uint64_t cache_hits = 0;       ///< pair already on disk at admission
  std::uint64_t dispatches = 0;
  std::uint64_t tasks_done = 0;
  std::uint64_t tasks_failed = 0;
  std::uint64_t redeliveries = 0;
  std::uint64_t leases_expired = 0;
  std::uint64_t workers_killed = 0;    ///< by the supervisor (lease expiry)
  std::uint64_t workers_died = 0;      ///< reaped for any reason
  std::uint64_t workers_respawned = 0;
  std::uint64_t quarantined = 0;

  // Fleet cooperation over the shared spool.
  std::uint64_t tasks_spooled = 0;
  std::uint64_t tasks_adopted = 0;  ///< taken over from a DEAD peer
  std::uint64_t tasks_stolen = 0;   ///< taken over from a live but wedged peer

  // Served prove/guardband op runners.
  std::uint64_t ops_admitted = 0;
  std::uint64_t ops_done = 0;
  std::uint64_t ops_failed = 0;
  std::uint64_t ops_cancelled = 0;  ///< client disconnected; runner SIGKILLed
  std::uint64_t ops_expired = 0;    ///< per-op deadline blown; runner SIGKILLed

  // op=gc sweeps run by this daemon (counters accumulate across sweeps).
  std::uint64_t gc_sweeps = 0;
  std::uint64_t gc_evicted = 0;
  std::uint64_t gc_skipped_leased = 0;
  std::uint64_t gc_skipped_quarantined = 0;
  std::uint64_t gc_tombstones_completed = 0;

  [[nodiscard]] std::vector<std::pair<std::string, double>> as_pairs() const;
};

class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, forks workers, and runs the accept/dispatch loop until a drain
  /// completes (SIGTERM/SIGINT via the process CancelToken, or op=shutdown).
  /// Returns the process exit code: 0 clean drain, 2 startup failure.
  /// Forces the shared ThreadPool to size 1 BEFORE forking — a child forked
  /// while pool threads exist would inherit their locked state and deadlock.
  int run();

  [[nodiscard]] const ServeStats& stats() const { return stats_; }

 private:
  struct Impl;
  ServeOptions options_;
  ServeStats stats_;
  Impl* impl_ = nullptr;  // live only inside run()

  friend struct Impl;
};

}  // namespace rw::serve
