#pragma once

/// \file protocol.hpp
/// The rwserved wire protocol: newline-delimited JSON, one document per
/// line, over Unix-domain stream sockets. Two framings share the codec:
///
///  * client <-> daemon: `Request` / `Response`. Requests carry a
///    client-chosen `id` used for idempotent retry — a client that times out
///    and reconnects resends the SAME id, and the daemon answers from its
///    completed-response cache (or attaches the new connection to the
///    still-pending request) instead of re-running the work.
///  * daemon <-> worker: `WorkerTask` / `WorkerReply` over a per-worker
///    socketpair. Results never travel over this channel — workers publish
///    cells into the shared disk cache and the reply is just an ack — so a
///    worker killed mid-reply loses nothing.
///
/// Doubles are serialized with util::json::format_double (%.17g, exact
/// round-trip); text with RFC 8259 escaping. Parsers are util::json readers:
/// they skip unknown fields (forward compatibility), bound nesting, and
/// report torn/invalid documents via a false return, never an exception —
/// on a byte stream, garbage is an expected input.

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "aging/scenario.hpp"

namespace rw::util::json {
class Reader;
}

namespace rw::serve {

/// One client request. `op` selects the shape:
///  - "ping":         liveness probe, no other fields.
///  - "characterize": one (cell, scenario) -> single-cell library text.
///  - "library":      full library for one scenario.
///  - "merged":       merged library over `corners` (each {λp, λn}) at the
///                    shared `years` / `include_mobility`.
///  - "prove":        certified interval-STA guardband over `netlist`
///                    (Verilog text) at `years`; optional `guardband_ps`
///                    asks for a PV verdict against that budget.
///  - "guardband":    point static guardband over `netlist` at the request
///                    scenario.
///  - "gc":           sweep the shared cache; `max_age_ms` overrides the
///                    daemon's age threshold (< 0 = daemon default).
///  - "stats":        daemon counters (chaos/test observability).
///  - "shutdown":     begin a graceful drain (same as SIGTERM).
struct Request {
  std::string id;
  std::string op;
  std::string cell;
  double lambda_p = 0.0;
  double lambda_n = 0.0;
  double years = 0.0;
  bool include_mobility = true;
  std::vector<std::array<double, 2>> corners;
  /// Verilog source for op=prove / op=guardband (runs server-side).
  std::string netlist;
  /// op=prove: PV budget in ps (< 0 = bound-only, no verdict).
  double guardband_ps = -1.0;
  /// Per-op wall deadline for prove/guardband (<= 0 = daemon default).
  double deadline_ms = 0.0;
  /// op=gc: entries idle longer than this are evicted (< 0 = daemon default).
  double max_age_ms = -1.0;

  [[nodiscard]] aging::AgingScenario scenario() const;
};

/// Daemon reply. `status` is one of:
///  - "ok":         `library` (or `stats`) holds the payload.
///  - "error":      permanent failure; `error` holds the chain. Retrying
///                  will not help (quarantined cell, bad request).
///  - "overloaded": queue full; retry after `retry_after_ms`.
///  - "draining":   daemon is shutting down; retry against its successor.
struct Response {
  std::string id;
  std::string status;
  std::string error;
  std::string library;
  /// op=prove / op=guardband result document (one-line JSON, itself built
  /// with util::json::format_double so fleet grading can compare it bitwise).
  std::string result;
  double retry_after_ms = 0.0;
  std::vector<std::pair<std::string, double>> stats;
};

/// Daemon -> worker: characterize one (scenario, cell) into the disk cache.
/// `task` is the daemon's task key, echoed back verbatim in the reply.
/// `hang_ms` stalls the worker before solving (chaos stall injection, wired
/// by the daemon so it is deterministic per-dispatch) and `exit_now` asks
/// the worker to exit cleanly (drain).
struct WorkerTask {
  std::string task;
  std::string cell;
  double lambda_p = 0.0;
  double lambda_n = 0.0;
  double years = 0.0;
  bool include_mobility = true;
  double hang_ms = 0.0;
  bool exit_now = false;

  [[nodiscard]] aging::AgingScenario scenario() const;
};

/// Worker -> daemon ack. "done" means the cell is published in the disk
/// cache; "failed" carries the error chain, with `permanent` distinguishing
/// a CharError (quarantine, do not retry) from a transient failure (retry).
struct WorkerReply {
  std::string task;
  std::string status;
  std::string error;
  bool permanent = false;
  /// Op-runner children (prove/guardband) reuse this frame; unlike cell
  /// characterization their result is not a cache file, so it rides here.
  std::string payload;
};

/// Serializers emit one JSON object WITHOUT the trailing '\n' (the sender
/// appends the frame delimiter).
std::string to_json(const Request& r);
std::string to_json(const Response& r);
std::string to_json(const WorkerTask& t);
std::string to_json(const WorkerReply& r);

/// Parsers: false (with `error` set) on torn or malformed input; unknown
/// fields are skipped.
bool parse_request(const std::string& line, Request& out, std::string& error);
bool parse_response(const std::string& line, Response& out, std::string& error);
bool parse_worker_task(const std::string& line, WorkerTask& out, std::string& error);
bool parse_worker_reply(const std::string& line, WorkerReply& out, std::string& error);

/// Reads the value of one WorkerTask member `key` into `out` (unknown keys
/// are skipped). Documents that extend a WorkerTask, like spool records,
/// read their own keys and hand the rest here.
bool read_worker_task_member(util::json::Reader& r, std::string_view key, WorkerTask& out);

}  // namespace rw::serve
