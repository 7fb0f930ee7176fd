#include "serve/ops.hpp"

#include <unistd.h>

#include <exception>
#include <string>

#include "aging/scenario.hpp"
#include "flow/guardband_flow.hpp"
#include "flow/prove_flow.hpp"
#include "lint/diagnostic.hpp"
#include "netlist/verilog.hpp"
#include "sta/guardband.hpp"
#include "util/io.hpp"
#include "util/json.hpp"

namespace rw::serve {

namespace {

using util::json::format_double;

/// One unexceptional error chain: what() of each nested exception, joined.
std::string error_chain(const std::exception& e) {
  std::string out = e.what();
  try {
    std::rethrow_if_nested(e);
  } catch (const std::exception& nested) {
    out += " <- " + error_chain(nested);
  } catch (...) {
    out += " <- unknown error";
  }
  return out;
}

}  // namespace

std::string prove_payload(const flow::ProvenGuardbandResult& result) {
  std::size_t errors = 0;
  for (const lint::Diagnostic& d : result.findings) {
    if (d.severity == lint::Severity::kError) ++errors;
  }
  std::string out = "{\"op\":\"prove\"";
  out += ",\"certified\":" + std::string(result.certified ? "true" : "false");
  out += ",\"fresh_cp_ps\":" + format_double(result.summary.fresh_cp_ps);
  out += ",\"aged_cp_lo_ps\":" + format_double(result.summary.aged_cp_ps.lo);
  out += ",\"aged_cp_hi_ps\":" + format_double(result.summary.aged_cp_ps.hi);
  out += ",\"vacuous\":" + std::string(result.summary.vacuous ? "true" : "false");
  out += ",\"guardband_ps\":" + format_double(result.summary.guardband_ps);
  out += ",\"candidate_corners\":" + std::to_string(result.candidate_corners);
  out += ",\"findings\":" + std::to_string(result.findings.size());
  out += ",\"finding_errors\":" + std::to_string(errors);
  out += "}";
  return out;
}

std::string guardband_payload(const sta::GuardbandReport& report) {
  std::string out = "{\"op\":\"guardband\"";
  out += ",\"fresh_cp_ps\":" + format_double(report.fresh_cp_ps);
  out += ",\"aged_cp_ps\":" + format_double(report.aged_cp_ps);
  out += ",\"guardband_ps\":" + format_double(report.guardband_ps());
  out += ",\"guardband_pct\":" + format_double(report.guardband_pct());
  out += "}";
  return out;
}

void op_runner_main(int fd, const charlib::LibraryFactory::Options& factory_options,
                    const Request& req) {
  util::io::ignore_sigpipe();
  WorkerReply reply;
  reply.task = req.id;
  try {
    charlib::LibraryFactory::Options o = factory_options;
    // The runner characterizes what the pipeline needs (the supervisor's
    // disk_only restriction is for IT, not its children) and leaves the
    // manifest to the owning daemons — two writers per grid are enough.
    o.disk_only = false;
    o.use_manifest = false;
    o.resume = false;
    charlib::LibraryFactory factory(o);
    const liberty::Library& fresh = factory.library(aging::AgingScenario::fresh());
    const netlist::Module module = netlist::parse_verilog(req.netlist, fresh);
    if (req.op == "prove") {
      const flow::ProvenGuardbandResult result =
          flow::proven_guardband(module, factory, req.years, req.guardband_ps);
      reply.payload = prove_payload(result);
    } else {
      const sta::GuardbandReport report =
          flow::static_guardband(module, factory, req.scenario());
      reply.payload = guardband_payload(report);
    }
    reply.status = "done";
  } catch (const std::exception& e) {
    reply.status = "failed";
    reply.error = error_chain(e);
    reply.permanent = true;  // same netlist + scenario will fail the same way
  } catch (...) {
    reply.status = "failed";
    reply.error = "unknown error";
    reply.permanent = true;
  }
  (void)util::io::write_all(fd, to_json(reply) + "\n");
  ::_exit(0);
}

}  // namespace rw::serve
