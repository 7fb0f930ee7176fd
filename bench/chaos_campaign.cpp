/// \file chaos_campaign.cpp
/// Chaos-campaign reproduction harness: 25 seeded failure-injection trials
/// over the orchestrated dynamic-workload guardband flow (see
/// src/flow/chaos.hpp for the contract each trial asserts). Prints the
/// per-trial outcomes plus the histogram and writes BENCH_chaos.json; the
/// process exits non-zero if any trial violates the crash-only contract, so
/// the bench doubles as a long-form regression gate. $RW_CHAOS_SEED shifts
/// the seed base without recompiling.

#include <cstdint>

#include "bench/common.hpp"
#include "flow/chaos.hpp"
#include "util/atomic_file.hpp"
#include "util/number.hpp"

int main(int argc, char** argv) {
  rw::bench::init(argc, argv);
  rw::bench::print_header("Chaos campaign: crash-only contract over the guardband flow");

  const std::uint64_t base_seed = rw::util::env_number<std::uint64_t>("RW_CHAOS_SEED", 1);
  constexpr int kTrials = 25;
  const rw::flow::ChaosCampaignResult campaign =
      rw::flow::run_chaos_campaign(base_seed, kTrials, "chaos_campaign");

  std::printf("%-6s  %-9s  %-20s  %s\n", "seed", "kind", "outcome", "wall_ms");
  for (const rw::flow::ChaosTrialResult& t : campaign.trials) {
    std::printf("%-6llu  %-9s  %-20s  %9.1f\n", static_cast<unsigned long long>(t.seed),
                t.kind.c_str(), t.outcome.c_str(), t.wall_ms);
  }
  std::printf("histogram:");
  for (const auto& [outcome, count] : campaign.histogram) {
    std::printf("  %s=%d", outcome.c_str(), count);
  }
  std::printf("\n%s\n", campaign.all_good ? "chaos contract held for every trial"
                                          : "CHAOS CONTRACT VIOLATED");

  rw::util::write_file_atomic("BENCH_chaos.json",
                              rw::flow::campaign_json(campaign, base_seed));
  std::printf("wrote BENCH_chaos.json\n");
  return campaign.all_good ? 0 : 2;
}
