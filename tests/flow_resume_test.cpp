/// Whole-pipeline crash/resume guarantees over the orchestrated
/// dynamic-workload guardband flow: SIGKILL (via fork) at every stage
/// boundary followed by RW_FLOW_RESUME-style resume must reproduce the
/// uninterrupted run bitwise, fully-checkpointed resumes must re-run zero
/// SPICE solves, orchestration disabled must equal orchestration enabled,
/// and a short fixed-seed chaos campaign must grade all-good.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "flow/artifact.hpp"
#include "flow/cancel.hpp"
#include "flow/chaos.hpp"
#include "flow/guardband_flow.hpp"
#include "lint/linter.hpp"
#include "spice/fault.hpp"
#include "spice/solver.hpp"
#include "util/thread_pool.hpp"

namespace rw {
namespace {

namespace fs = std::filesystem;

spice::FaultInjector& injector() { return spice::FaultInjector::instance(); }

class FlowResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // fork() below must not race live pool threads.
    util::set_shared_thread_count(1);
    injector().disarm();
    spice::set_solve_watchdog_ms(0.0);
    flow::cancel_token().clear();
    dir_ = (fs::temp_directory_path() /
            ("rw_flow_resume_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fs::remove_all(dir_);
    injector().disarm();
    spice::set_solve_watchdog_ms(0.0);
    flow::cancel_token().clear();
    util::set_shared_thread_count(0);
  }

  std::string dir_;
};

/// Signature of the uninterrupted orchestrated run, computed once per test
/// binary (characterization is the expensive part; every test compares
/// against the same bytes).
const std::string& reference_signature() {
  static const std::string signature = [] {
    const std::string ref_dir =
        (fs::temp_directory_path() /
         ("rw_flow_resume_ref_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(ref_dir);
    flow::OrchestratorOptions orch;
    orch.dir = ref_dir + "/flow";
    charlib::LibraryFactory factory(flow::chaos_factory_options());
    const std::string sig =
        flow::result_signature(flow::run_orchestrated_guardband(factory, orch));
    fs::remove_all(ref_dir);
    return sig;
  }();
  return signature;
}

TEST_F(FlowResumeTest, OrchestrationDisabledMatchesEnabledBitwise) {
  // The acceptance bar for the whole PR: with no flow directory the flows
  // must behave — bit for bit — as if the orchestrator did not exist.
  flow::OrchestratorOptions disabled;  // dir empty
  charlib::LibraryFactory factory(flow::chaos_factory_options());
  const flow::DynamicAgingResult plain =
      flow::run_orchestrated_guardband(factory, disabled);
  EXPECT_EQ(flow::result_signature(plain), reference_signature());
}

TEST_F(FlowResumeTest, SigkillAtEveryStageBoundaryThenResumeIsBitwiseIdentical) {
  // The dynamic flow has 4 checkpointed stages: fresh_library, simulate,
  // characterize, sta. Crash right after each one and resume.
  for (int kill_stage = 0; kill_stage < 4; ++kill_stage) {
    SCOPED_TRACE("kill_after_stage=" + std::to_string(kill_stage));
    const std::string flow_dir = dir_ + "/k" + std::to_string(kill_stage);

    flow::OrchestratorOptions child_orch;
    child_orch.dir = flow_dir;
    child_orch.kill_after_stage = kill_stage;
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      try {
        charlib::LibraryFactory child_factory(flow::chaos_factory_options());
        (void)flow::run_orchestrated_guardband(child_factory, child_orch);
      } catch (...) {
      }
      _exit(7);  // only reached if the SIGKILL hook failed to fire
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of crashing";
    ASSERT_EQ(WTERMSIG(status), SIGKILL);
    ASSERT_TRUE(fs::exists(flow_dir + "/flow_manifest.json"));

    // Stages 0..2 are fresh_library/simulate/characterize; once all three
    // are checkpointed the resume needs no SPICE at all. Make any solve a
    // hard failure so the zero-recharacterization claim is load-bearing.
    const bool resume_needs_no_spice = kill_stage >= 2;
    if (resume_needs_no_spice) {
      injector().arm_fail_matching("", 0, spice::FaultInjector::Action::kFailConvergence);
    }
    flow::OrchestratorOptions resume_orch;
    resume_orch.dir = flow_dir;
    resume_orch.resume = true;
    charlib::LibraryFactory factory(flow::chaos_factory_options());
    const flow::DynamicAgingResult resumed =
        flow::run_orchestrated_guardband(factory, resume_orch);
    if (resume_needs_no_spice) {
      EXPECT_EQ(injector().observed_solves(), 0u)
          << "resume re-characterized despite completed checkpoints";
      injector().disarm();
    }
    EXPECT_EQ(flow::result_signature(resumed), reference_signature());
  }
}

TEST_F(FlowResumeTest, ResumedRunReportMarksCompletedStagesCached) {
  const std::string flow_dir = dir_ + "/flow";
  {
    flow::OrchestratorOptions orch;
    orch.dir = flow_dir;
    charlib::LibraryFactory factory(flow::chaos_factory_options());
    (void)flow::run_orchestrated_guardband(factory, orch);
  }
  // Everything is checkpointed: the resume must serve all 4 stages from
  // disk, and its run report must say so.
  std::ifstream report_in(flow_dir + "/run_report.json", std::ios::binary);
  ASSERT_TRUE(report_in.good());
  {
    flow::OrchestratorOptions orch;
    orch.dir = flow_dir;
    orch.resume = true;
    charlib::LibraryFactory factory(flow::chaos_factory_options());
    const flow::DynamicAgingResult resumed =
        flow::run_orchestrated_guardband(factory, orch);
    EXPECT_EQ(flow::result_signature(resumed), reference_signature());
  }
  std::ifstream in(flow_dir + "/run_report.json", std::ios::binary);
  const std::string report{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
  EXPECT_NE(report.find("\"cached\""), std::string::npos);
  EXPECT_EQ(report.find("\"failed\""), std::string::npos);
}

TEST_F(FlowResumeTest, CorruptedAnnotationStillTripsTheStressOracle) {
  // The dynamic flow's oracle checks the annotated copy against the λ
  // bounds its pre-flight proved. Corrupt the simulate checkpoint so the
  // flop's duty cycle (its clock pin keeps λn inside [0.25, 0.75]) reads as
  // λn = 0, drop the characterize checkpoint so the corrupted corner is
  // built, and resume: the oracle must refuse the run with SP001.
  const std::string flow_dir = dir_ + "/flow";
  flow::OrchestratorOptions orch;
  orch.dir = flow_dir;
  {
    charlib::LibraryFactory factory(flow::chaos_factory_options());
    (void)flow::run_orchestrated_guardband(factory, orch);
  }
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  };
  const std::string simulate = flow_dir + "/01_simulate.art";
  std::vector<double> v = flow::artifact::decode_doubles(slurp(simulate));
  ASSERT_GE(v.size(), 7u);
  ASSERT_EQ(v[0], 3.0);  // chaos_test_module: u1, u2, then the flop r1
  v[5] = 1.0;            // r1 λp
  v[6] = 0.0;            // r1 λn
  const std::string corrupted = flow::artifact::encode_doubles(v);
  {
    std::ofstream out(simulate, std::ios::binary | std::ios::trunc);
    out << corrupted;
  }
  // Keep the manifest's byte count in step, or the checkpoint is ignored.
  std::string manifest = slurp(flow_dir + "/flow_manifest.json");
  const std::string key = "\"artifact\":\"01_simulate.art\",\"bytes\":";
  const std::size_t at = manifest.find(key);
  ASSERT_NE(at, std::string::npos);
  const std::size_t digits = at + key.size();
  manifest.replace(digits, manifest.find(',', digits) - digits, std::to_string(corrupted.size()));
  {
    std::ofstream out(flow_dir + "/flow_manifest.json", std::ios::binary | std::ios::trunc);
    out << manifest;
  }
  ASSERT_TRUE(fs::remove(flow_dir + "/02_characterize.art"));

  orch.resume = true;
  charlib::LibraryFactory factory(flow::chaos_factory_options());
  try {
    (void)flow::run_orchestrated_guardband(factory, orch);
    FAIL() << "expected the oracle to refuse the corrupted annotation";
  } catch (const lint::LintError& e) {
    bool flop_refused = false;
    for (const lint::Diagnostic& d : e.diagnostics()) {
      if (d.rule_id == lint::rules::kLambdaOutsideBounds &&
          d.location.find("r1") != std::string::npos) {
        flop_refused = true;
      }
    }
    EXPECT_TRUE(flop_refused) << e.what();
  }
}

TEST_F(FlowResumeTest, ShortFixedSeedChaosCampaignGradesAllGood) {
  const flow::ChaosCampaignResult campaign =
      flow::run_chaos_campaign(1, 3, dir_ + "/campaign");
  int total = 0;
  for (const auto& [outcome, count] : campaign.histogram) {
    EXPECT_TRUE(outcome == "ok" || outcome == "failed_then_resumed")
        << outcome << " x" << count;
    total += count;
  }
  EXPECT_EQ(total, 3);
  ASSERT_EQ(campaign.trials.size(), 3u);
  EXPECT_TRUE(campaign.all_good);

  const std::string json = flow::campaign_json(campaign, 1);
  EXPECT_NE(json.find("\"all_good\":true"), std::string::npos);
  EXPECT_NE(json.find("\"trials\":3"), std::string::npos);
}

TEST_F(FlowResumeTest, PlansAreDeterministicPerSeed) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const flow::ChaosPlan a = flow::plan_for_seed(seed);
    const flow::ChaosPlan b = flow::plan_for_seed(seed);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.nth, b.nth);
    EXPECT_EQ(a.times, b.times);
    EXPECT_EQ(a.kill_after_stage, b.kill_after_stage);
    EXPECT_GE(a.kill_after_stage, 0);
    EXPECT_LE(a.kill_after_stage, 3);
    EXPECT_GE(a.deadline_ms, 2);
  }
}

}  // namespace
}  // namespace rw
