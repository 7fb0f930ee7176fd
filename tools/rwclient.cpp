/// \file rwclient.cpp
/// `rwclient` — command-line client for rwserved. Sends one request and
/// prints (or writes) the response, with idempotent-id retry across daemon
/// timeouts and restarts: rerunning the same command with the same --id is
/// always safe and never duplicates SPICE work.
///
/// Exit codes:
///   0  ok response
///   2  error response, or no response after every retry
///   64 usage error
///
/// Typical runs:
///   rwclient --socket /tmp/rw.sock ping
///   rwclient --socket /tmp/rw.sock characterize --cell NAND2_X1 --lp 0.4 --ln 0.6 --years 10
///   rwclient --socket /tmp/rw.sock merged --years 10 --corners 0:0,0.5:0.5,1:1 --out merged.lib
///   rwclient --socket /tmp/rw.sock prove --netlist design.v --years 10
///   rwclient --socket /tmp/rw.sock guardband --netlist design.v --lp 0.5 --ln 0.5
///   rwclient --socket /tmp/rw.sock gc --max-age-ms 86400000
///   rwclient --socket /tmp/rw.sock shutdown

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "cli.hpp"
#include "flow/cancel.hpp"
#include "serve/client.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: rwclient --socket PATH OP [options]\n"
        "  OP: ping | stats | shutdown | characterize | library | merged\n"
        "      | prove | guardband | gc\n"
        "  --socket PATH     daemon socket ($RW_SERVE_SOCKET)\n"
        "  --id ID           idempotent request id (default: derived, unique)\n"
        "  --cell NAME       cell for `characterize`\n"
        "  --lp X --ln X     lambda duty cycles (default 1.0)\n"
        "  --years Y         lifetime (default 10)\n"
        "  --no-mobility     disable mobility degradation\n"
        "  --corners LP:LN,LP:LN,...   corners for `merged`\n"
        "  --netlist PATH    Verilog netlist for `prove`/`guardband`\n"
        "  --guardband PS    explicit guardband to certify (`prove`; default: derived)\n"
        "  --deadline-ms MS  server-side op deadline (`prove`/`guardband`)\n"
        "  --max-age-ms MS   GC idle-age threshold (`gc`; default: daemon's)\n"
        "  --out PATH        write the library text to PATH (default stdout)\n"
        "  --timeout-ms MS   per-attempt response timeout (default 120000)\n"
        "  --attempts N      send attempts before giving up (default 5)\n"
        "  -h, --help        this message\n"
        "exit codes: 0 ok, 2 error/no response, 64 usage\n";
}

/// A collision-resistant default id: pid + monotonic ns. Good enough for
/// "two rwclient invocations are distinct"; callers that NEED idempotency
/// across invocations pass --id themselves.
std::string default_id() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return "cli-" + std::to_string(::getpid()) + "-" +
         std::to_string(std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

bool parse_corners(const std::string& text, rw::serve::Request& req) {
  for (const std::string& token : rw::util::split(text, ",")) {
    const std::string_view corner = token;
    const auto sep = corner.find(':');
    double lp = 0.0;
    double ln = 0.0;
    if (sep == std::string_view::npos || !rw::util::parse_number(corner.substr(0, sep), lp) ||
        !rw::util::parse_number(corner.substr(sep + 1), ln)) {
      return false;
    }
    req.corners.push_back({lp, ln});
  }
  return !req.corners.empty();
}

}  // namespace

int main(int argc, char** argv) {
  rw::flow::install_signal_handlers();
  rw::flow::install_deadline_from_env();

  rw::serve::ClientOptions client_options;
  if (const char* env = std::getenv("RW_SERVE_SOCKET"); env != nullptr && *env != '\0') {
    client_options.socket_path = env;
  }
  rw::serve::Request req;
  req.lambda_p = 1.0;
  req.lambda_n = 1.0;
  req.years = 10.0;
  std::string out_path;
  std::string corners_text;
  std::string netlist_path;

  rw::cli::Cursor cur("rwclient", argc, argv, print_usage);
  while (cur.next()) {
    if (cur.is("-h") || cur.is("--help")) {
      print_usage(std::cout);
      return 0;
    } else if (cur.is("--socket")) {
      client_options.socket_path = cur.value();
    } else if (cur.is("--id")) {
      req.id = cur.value();
    } else if (cur.is("--cell")) {
      req.cell = cur.value();
    } else if (cur.is("--lp")) {
      req.lambda_p = cur.number<double>("a duty cycle");
    } else if (cur.is("--ln")) {
      req.lambda_n = cur.number<double>("a duty cycle");
    } else if (cur.is("--years")) {
      req.years = cur.number<double>("a lifetime in years");
    } else if (cur.is("--no-mobility")) {
      req.include_mobility = false;
    } else if (cur.is("--corners")) {
      corners_text = cur.value();
    } else if (cur.is("--netlist")) {
      netlist_path = cur.value();
    } else if (cur.is("--guardband")) {
      req.guardband_ps = cur.number<double>("a value in ps");
    } else if (cur.is("--deadline-ms")) {
      req.deadline_ms = cur.number<double>("milliseconds");
    } else if (cur.is("--max-age-ms")) {
      req.max_age_ms = cur.number<double>("milliseconds");
    } else if (cur.is("--out")) {
      out_path = cur.value();
    } else if (cur.is("--timeout-ms")) {
      client_options.timeout_ms = cur.number<int>("milliseconds");
    } else if (cur.is("--attempts")) {
      client_options.max_attempts = cur.number<int>("a count");
    } else if (!cur.flag() && req.op.empty()) {
      req.op = cur.arg();
    } else {
      cur.unknown();
    }
  }

  if (client_options.socket_path.empty() || req.op.empty()) {
    cur.fail_with_usage("--socket and an OP are required");
  }
  if (req.op == "characterize" && req.cell.empty()) cur.fail("characterize needs --cell");
  if (req.op == "merged" && !parse_corners(corners_text, req)) {
    cur.fail("merged needs --corners LP:LN,...");
  }
  if (req.op == "prove" || req.op == "guardband") {
    if (netlist_path.empty()) cur.fail(req.op + " needs --netlist PATH");
    std::ifstream in(netlist_path, std::ios::binary);
    if (!in) {
      std::cerr << "rwclient: cannot read " << netlist_path << "\n";
      return 2;
    }
    std::ostringstream os;
    os << in.rdbuf();
    req.netlist = os.str();
  }
  if (req.id.empty()) req.id = default_id();

  try {
    rw::serve::ServeClient client(client_options);
    const rw::serve::Response resp = client.request(req);
    if (resp.status != "ok") {
      std::cerr << "rwclient: " << resp.status
                << (resp.error.empty() ? "" : ": " + resp.error) << "\n";
      return 2;
    }
    if (!resp.stats.empty()) {
      for (const auto& [name, value] : resp.stats) {
        std::cout << name << " = " << rw::util::json::format_double(value) << "\n";
      }
    }
    if (!resp.result.empty()) std::cout << resp.result << "\n";
    if (!resp.library.empty()) {
      if (out_path.empty()) {
        std::cout << resp.library;
      } else {
        rw::util::write_file_atomic(out_path, resp.library);
        std::cerr << "rwclient: wrote " << out_path << "\n";
      }
    } else if (resp.stats.empty() && resp.result.empty()) {
      std::cout << "ok\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "rwclient: " << e.what() << "\n";
    return 2;
  }
}
