/// \file rwserved.cpp
/// `rwserved` — the crash-tolerant characterization daemon. Accepts NDJSON
/// requests (see serve/protocol.hpp) on a Unix-domain socket, shards the
/// (scenario, cell) work across fork-based workers with leased deadlines,
/// and serves every byte from the shared disk cache. SIGTERM (or a client
/// op=shutdown) drains gracefully: admitted work finishes, new requests are
/// shed as "draining", workers exit, an optional report is written.
///
/// Exit codes:
///   0  clean drain
///   2  startup failure (socket taken by a live daemon, no cache dir)
///   64 usage error
///
/// Typical runs:
///   rwserved --socket /tmp/rw.sock --cache ~/.cache/reliaware --workers 4
///   RW_SERVE_WORKERS=8 RW_SERVE_LEASE_MS=60000 rwserved --socket /tmp/rw.sock
///   rwserved --gc --cache ~/.cache/reliaware --gc-max-age-ms 86400000

#include <iostream>
#include <string>

#include "charlib/opc.hpp"
#include "cli.hpp"
#include "flow/cancel.hpp"
#include "serve/gc.hpp"
#include "serve/server.hpp"
#include "util/strings.hpp"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: rwserved --socket PATH [options]\n"
        "  --socket PATH     Unix-domain socket ($RW_SERVE_SOCKET)\n"
        "  --cache DIR       disk cache root ($RW_LIBCACHE)\n"
        "  --workers N       worker processes ($RW_SERVE_WORKERS, default 2)\n"
        "  --lease-ms MS     per-task lease deadline ($RW_SERVE_LEASE_MS, default 10000)\n"
        "  --queue-max N     queued+leased task bound ($RW_SERVE_QUEUE_MAX, default 64)\n"
        "  --grid paper|coarse  OPC grid (default paper)\n"
        "  --cells A,B,C     restrict the cell catalog (tests)\n"
        "  --resume          honor an existing manifest.json\n"
        "  --report PATH     write a drain report JSON on shutdown\n"
        "  --steal-ms MS     fleet spool scan cadence ($RW_SERVE_STEAL_MS, default 1000)\n"
        "  --spool-ttl-ms MS spool entry TTL before peers may steal\n"
        "                    ($RW_SERVE_SPOOL_TTL_MS, default 60000)\n"
        "  --op-max N        concurrent prove/guardband runners ($RW_SERVE_OP_MAX, default 2)\n"
        "  --op-deadline-ms MS  default per-op deadline ($RW_SERVE_OP_DEADLINE_MS)\n"
        "  --gc              one-shot cache GC sweep (needs --cache), then exit\n"
        "  --gc-max-age-ms MS   GC idle-age threshold ($RW_SERVE_GC_MAX_AGE_MS, default 7d)\n"
        "  --gc-dry-run      with --gc: report what WOULD be evicted, delete nothing\n"
        "  -h, --help        this message\n"
        "exit codes: 0 clean drain / gc done, 2 startup failure, 64 usage\n";
}

}  // namespace

int main(int argc, char** argv) {
  rw::flow::install_signal_handlers();  // SIGTERM/SIGINT -> drain, SIGPIPE -> EPIPE
  rw::flow::install_deadline_from_env();

  rw::serve::ServeOptions options = rw::serve::ServeOptions::from_env();
  bool gc_oneshot = false;
  bool gc_dry_run = false;
  rw::cli::Cursor cur("rwserved", argc, argv, print_usage);
  while (cur.next()) {
    if (cur.is("-h") || cur.is("--help")) {
      print_usage(std::cout);
      return 0;
    } else if (cur.is("--socket")) {
      options.socket_path = cur.value();
    } else if (cur.is("--cache")) {
      options.factory.cache_dir = cur.value();
    } else if (cur.is("--workers")) {
      options.workers = cur.number<int>("a count >= 1", rw::cli::positive);
    } else if (cur.is("--lease-ms")) {
      options.lease_ms = cur.number<double>("milliseconds");
    } else if (cur.is("--queue-max")) {
      options.queue_max = cur.number<int>("a count");
    } else if (cur.is("--grid")) {
      const std::string grid = cur.value();
      if (grid == "paper") {
        options.factory.characterize.grid = rw::charlib::OpcGrid::paper();
      } else if (grid == "coarse") {
        options.factory.characterize.grid = rw::charlib::OpcGrid::coarse();
      } else {
        cur.fail("unknown grid \"" + grid + "\"");
      }
    } else if (cur.is("--cells")) {
      options.factory.cell_subset = rw::util::split(cur.value(), ",");
    } else if (cur.is("--resume")) {
      options.factory.resume = true;
    } else if (cur.is("--report")) {
      options.report_path = cur.value();
    } else if (cur.is("--steal-ms")) {
      options.steal_interval_ms = cur.number<double>("milliseconds");
    } else if (cur.is("--spool-ttl-ms")) {
      options.spool_ttl_ms = cur.number<double>("milliseconds");
    } else if (cur.is("--op-max")) {
      options.op_max = cur.number<int>("a count >= 1", rw::cli::positive);
    } else if (cur.is("--op-deadline-ms")) {
      options.op_deadline_ms = cur.number<double>("milliseconds");
    } else if (cur.is("--gc")) {
      gc_oneshot = true;
    } else if (cur.is("--gc-max-age-ms")) {
      options.gc_max_age_ms = cur.number<double>("milliseconds");
    } else if (cur.is("--gc-dry-run")) {
      gc_dry_run = true;
    } else {
      cur.unknown();
    }
  }
  if (gc_oneshot) {
    // One-shot sweep: no socket, no workers — just the crash-safe GC over
    // the shared cache, the same code path op=gc runs in a live daemon.
    if (options.factory.cache_dir.empty()) cur.fail("--gc needs --cache (or $RW_LIBCACHE)");
    try {
      rw::serve::GcOptions gc;
      gc.cache_dir = options.factory.cache_dir;
      gc.max_age_ms = options.gc_max_age_ms;
      gc.dry_run = gc_dry_run;
      const rw::serve::GcResult swept = rw::serve::gc_sweep(gc);
      for (const auto& [name, value] : swept.as_pairs()) {
        std::cout << name << " = " << static_cast<long>(value) << "\n";
      }
      return 0;
    } catch (const std::exception& e) {
      std::cerr << "rwserved: gc failed: " << e.what() << "\n";
      return 2;
    }
  }
  if (options.socket_path.empty()) {
    cur.fail_with_usage("--socket (or $RW_SERVE_SOCKET) is required");
  }

  rw::serve::Server server(std::move(options));
  return server.run();
}
