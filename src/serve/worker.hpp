#pragma once

/// \file worker.hpp
/// The rwserved worker half: a forked child that receives `WorkerTask`
/// lines on a socketpair, characterizes each (scenario, cell) through its
/// own `LibraryFactory`, and acks with a `WorkerReply`. Results never cross
/// the socket — the worker PUBLISHES into the shared disk cache (atomic
/// temp+rename) and the supervisor reads from there — so the worker is
/// crash-only by construction: SIGKILL at any instant loses at most the
/// in-progress cell, whose dedup lease lock dies with it and is taken over.

#include "charlib/factory.hpp"

namespace rw::serve {

/// Everything a worker process needs; built by the supervisor BEFORE fork.
struct WorkerConfig {
  /// Factory options for the worker's own LibraryFactory. The supervisor
  /// forces `use_manifest = false` (it is the sole manifest owner) and
  /// `disk_only = false` (workers are the ones that actually solve).
  charlib::LibraryFactory::Options factory;
};

/// Worker main loop; never returns (ends in `_exit`). `fd` is the worker's
/// end of the supervisor socketpair. Exits 0 on an `exit_now` task or peer
/// EOF (supervisor died: workers must not outlive it), 2 on protocol
/// corruption.
[[noreturn]] void worker_main(int fd, const WorkerConfig& config);

}  // namespace rw::serve
