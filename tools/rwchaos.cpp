/// \file rwchaos.cpp
/// `rwchaos` — seeded chaos campaign over the orchestrated guardband flow.
/// Every trial injects one seeded failure (solver convergence fault, NaN
/// residual, stall against the solve watchdog, wall-clock deadline, or a
/// SIGKILL at a checkpoint boundary) and asserts the crash-only contract:
/// the run completes correctly, or it fails with a structured run report and
/// then completes bitwise-correctly via resume.
///
/// Exit codes:
///   0  every trial ended in {ok, failed_then_resumed}
///   2  at least one contract violation (wrong_result/no_report/resume_failed)
///   64 usage error (bad flags), as in sysexits.h
///
/// With --serve the campaign targets the characterization service instead:
/// every trial forks a real rwserved daemon over a private cache, injects a
/// seeded fault (worker SIGKILL, task stall past its lease, daemon SIGKILL +
/// restart, client timeout), and asserts the served library text is bitwise
/// identical to a direct in-process LibraryFactory run.
///
/// With --serve-fleet every trial runs TWO daemons over one shared cache and
/// injects a fleet fault (daemon SIGKILL mid-load with peer adoption, cache
/// GC concurrent with characterization, work stealing from a wedged peer).
///
/// Typical runs:
///   rwchaos --seeds 25 --dir /tmp/chaos
///   rwchaos --serve --seeds 20 --dir /tmp/chaos_serve
///   rwchaos --serve-fleet --seeds 20 --dir /tmp/chaos_fleet
///   RW_CHAOS_SEED=1337 rwchaos --seeds 5 --json-out BENCH_chaos.json

#include <cstdint>
#include <iostream>
#include <string>

#include "cli.hpp"
#include "flow/cancel.hpp"
#include "flow/chaos.hpp"
#include "util/atomic_file.hpp"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: rwchaos [options]\n"
        "  --seeds N         number of seeded trials (default 25)\n"
        "  --seed S          base seed (default $RW_CHAOS_SEED, else 1)\n"
        "  --dir PATH        campaign work root (default ./chaos_campaign)\n"
        "  --serve           run the rwserved service campaign instead\n"
        "  --serve-fleet     run the two-daemon shared-cache fleet campaign\n"
        "  --json-out PATH   write the machine-readable campaign summary\n"
        "  -h, --help        this message\n"
        "exit codes: 0 contract held for every trial, 2 violations, 64 usage\n";
}

struct Args {
  int seeds = 25;
  std::uint64_t base_seed = 1;
  std::string dir = "chaos_campaign";
  std::string json_out;
  bool serve = false;
  bool fleet = false;
  bool help = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  args.base_seed = rw::util::env_number("RW_CHAOS_SEED", args.base_seed);
  rw::cli::Cursor cur("rwchaos", argc, argv, print_usage);
  while (cur.next()) {
    if (cur.is("-h") || cur.is("--help")) {
      args.help = true;
    } else if (cur.is("--seeds")) {
      args.seeds = cur.number<int>("a positive count", rw::cli::positive);
    } else if (cur.is("--seed")) {
      args.base_seed = cur.number<std::uint64_t>("an unsigned integer");
    } else if (cur.is("--dir")) {
      args.dir = cur.value();
    } else if (cur.is("--serve")) {
      args.serve = true;
    } else if (cur.is("--serve-fleet")) {
      args.fleet = true;
    } else if (cur.is("--json-out")) {
      args.json_out = cur.value();
    } else {
      cur.unknown();
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  rw::flow::install_signal_handlers();
  rw::flow::install_deadline_from_env();
  const Args args = parse_args(argc, argv);
  if (args.help) {
    print_usage(std::cout);
    return 0;
  }

  const rw::flow::ChaosCampaignResult campaign =
      args.fleet ? rw::flow::run_serve_fleet_campaign(args.base_seed, args.seeds, args.dir)
      : args.serve ? rw::flow::run_serve_chaos_campaign(args.base_seed, args.seeds, args.dir)
                   : rw::flow::run_chaos_campaign(args.base_seed, args.seeds, args.dir);

  for (const rw::flow::ChaosTrialResult& t : campaign.trials) {
    std::cout << "seed " << t.seed << "  " << t.kind << " -> " << t.outcome;
    if (!t.detail.empty()) std::cout << "  (" << t.detail << ")";
    std::cout << "\n";
  }
  std::cout << "outcomes:";
  for (const auto& [outcome, count] : campaign.histogram) {
    std::cout << "  " << outcome << "=" << count;
  }
  std::cout << "\n"
            << (campaign.all_good ? "chaos contract held for every trial\n"
                                  : "CHAOS CONTRACT VIOLATED\n");

  if (!args.json_out.empty()) {
    rw::util::write_file_atomic(
        args.json_out,
        rw::flow::campaign_json(campaign, args.base_seed,
                                args.fleet   ? "serve_fleet_campaign"
                                : args.serve ? "serve_chaos_campaign"
                                             : "chaos_campaign"));
    std::cout << "wrote " << args.json_out << "\n";
  }
  return campaign.all_good ? 0 : 2;
}
