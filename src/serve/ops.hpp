#pragma once

/// \file ops.hpp
/// Server-side prove/guardband: the rwprove and static-guardband pipelines
/// run INSIDE a forked op-runner child against the daemon's shared factory,
/// so flows become thin retrying clients. One child per op keeps the
/// supervisor single-threaded and makes cancellation trivial — a client
/// disconnect or a blown deadline is just SIGKILL on the runner; the only
/// durable side effect is cells published into the shared cache, which the
/// next attempt reuses.
///
/// Payloads are one-line JSON built with util::json::format_double so a
/// fleet trial can compare a served result bitwise against a direct
/// in-process run of the same pipeline.

#include "charlib/factory.hpp"
#include "serve/protocol.hpp"

namespace rw::flow {
struct ProvenGuardbandResult;
}
namespace rw::sta {
struct GuardbandReport;
}

namespace rw::serve {

/// Deterministic payload for op=prove.
std::string prove_payload(const flow::ProvenGuardbandResult& result);

/// Deterministic payload for op=guardband.
std::string guardband_payload(const sta::GuardbandReport& report);

/// Child entry point: runs the pipeline named by `req.op` ("prove" or
/// "guardband") over `req.netlist`, writes one WorkerReply line (payload on
/// "done", error chain + permanent on "failed") to `fd`, and _exit(0)s.
/// Never returns; never throws out.
[[noreturn]] void op_runner_main(int fd, const charlib::LibraryFactory::Options& factory_options,
                                 const Request& req);

}  // namespace rw::serve
