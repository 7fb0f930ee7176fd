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

#include "flow/cancel.hpp"
#include "serve/client.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace {

constexpr int kExitUsage = 64;

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
    const auto sep = token.find(':');
    if (sep == std::string::npos) return false;
    char* end = nullptr;
    const double lp = std::strtod(token.c_str(), &end);
    const double ln = std::strtod(token.c_str() + sep + 1, &end);
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

  const auto need_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "rwclient: " << flag << " needs a value\n";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = nullptr;
    if (a == "-h" || a == "--help") {
      print_usage(std::cout);
      return 0;
    } else if (a == "--socket") {
      if ((v = need_value(i, "--socket")) == nullptr) return kExitUsage;
      client_options.socket_path = v;
    } else if (a == "--id") {
      if ((v = need_value(i, "--id")) == nullptr) return kExitUsage;
      req.id = v;
    } else if (a == "--cell") {
      if ((v = need_value(i, "--cell")) == nullptr) return kExitUsage;
      req.cell = v;
    } else if (a == "--lp") {
      if ((v = need_value(i, "--lp")) == nullptr) return kExitUsage;
      req.lambda_p = std::atof(v);
    } else if (a == "--ln") {
      if ((v = need_value(i, "--ln")) == nullptr) return kExitUsage;
      req.lambda_n = std::atof(v);
    } else if (a == "--years") {
      if ((v = need_value(i, "--years")) == nullptr) return kExitUsage;
      req.years = std::atof(v);
    } else if (a == "--no-mobility") {
      req.include_mobility = false;
    } else if (a == "--corners") {
      if ((v = need_value(i, "--corners")) == nullptr) return kExitUsage;
      corners_text = v;
    } else if (a == "--netlist") {
      if ((v = need_value(i, "--netlist")) == nullptr) return kExitUsage;
      netlist_path = v;
    } else if (a == "--guardband") {
      if ((v = need_value(i, "--guardband")) == nullptr) return kExitUsage;
      req.guardband_ps = std::atof(v);
    } else if (a == "--deadline-ms") {
      if ((v = need_value(i, "--deadline-ms")) == nullptr) return kExitUsage;
      req.deadline_ms = std::atof(v);
    } else if (a == "--max-age-ms") {
      if ((v = need_value(i, "--max-age-ms")) == nullptr) return kExitUsage;
      req.max_age_ms = std::atof(v);
    } else if (a == "--out") {
      if ((v = need_value(i, "--out")) == nullptr) return kExitUsage;
      out_path = v;
    } else if (a == "--timeout-ms") {
      if ((v = need_value(i, "--timeout-ms")) == nullptr) return kExitUsage;
      client_options.timeout_ms = std::atoi(v);
    } else if (a == "--attempts") {
      if ((v = need_value(i, "--attempts")) == nullptr) return kExitUsage;
      client_options.max_attempts = std::atoi(v);
    } else if (!a.empty() && a[0] != '-' && req.op.empty()) {
      req.op = a;
    } else {
      std::cerr << "rwclient: unknown argument " << a << "\n";
      print_usage(std::cerr);
      return kExitUsage;
    }
  }

  if (client_options.socket_path.empty() || req.op.empty()) {
    std::cerr << "rwclient: --socket and an OP are required\n";
    print_usage(std::cerr);
    return kExitUsage;
  }
  if (req.op == "characterize" && req.cell.empty()) {
    std::cerr << "rwclient: characterize needs --cell\n";
    return kExitUsage;
  }
  if (req.op == "merged" && !parse_corners(corners_text, req)) {
    std::cerr << "rwclient: merged needs --corners LP:LN,...\n";
    return kExitUsage;
  }
  if (req.op == "prove" || req.op == "guardband") {
    if (netlist_path.empty()) {
      std::cerr << "rwclient: " << req.op << " needs --netlist PATH\n";
      return kExitUsage;
    }
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
