/// Checkpoint/resume machinery: the atomic file writer, the hexfloat
/// artifact codecs (exact round trips are what make resume bitwise), stage
/// caching semantics against corrupt/stale/divergent manifests, the
/// RunReport exit-code contract, and the FL001 stale-artifact lint rule.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "flow/artifact.hpp"
#include "flow/cancel.hpp"
#include "flow/orchestrator.hpp"
#include "flow/run_report.hpp"
#include "lint/diagnostic.hpp"
#include "liberty/parser.hpp"
#include "netlist/annotate.hpp"
#include "util/atomic_file.hpp"

namespace rw {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class OrchestratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("rw_orch_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(OrchestratorTest, AtomicWriteCreatesParentsReplacesAndLeavesNoTemp) {
  const std::string path = dir_ + "/a/b/c.txt";
  util::write_file_atomic(path, "first\n");
  EXPECT_EQ(slurp(path), "first\n");
  util::write_file_atomic(path, "second\n");
  EXPECT_EQ(slurp(path), "second\n");
  // No `.tmp.` siblings survive a successful publish.
  for (const auto& entry : fs::directory_iterator(dir_ + "/a/b")) {
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos) << entry.path();
  }
}

TEST_F(OrchestratorTest, AtomicNothrowReportsFailureInsteadOfThrowing) {
  const std::string blocker = dir_ + "/blocker";
  util::write_file_atomic(blocker, "x");
  // Parent "directory" is a regular file: the write cannot land.
  EXPECT_FALSE(util::write_file_atomic_nothrow(blocker + "/child.txt", "y"));
  EXPECT_TRUE(util::write_file_atomic_nothrow(dir_ + "/ok.txt", "y"));
}

TEST_F(OrchestratorTest, DoublesCodecRoundTripsBitwise) {
  const std::vector<double> values = {
      0.0, -0.0, 1.0 / 3.0, 4.0 * std::atan(1.0), 1e-300, -2.5e300,
      std::numeric_limits<double>::denorm_min(), std::numeric_limits<double>::max(),
      123.456789012345678, -0.0004999999999999999,
      // The reader takes exactly what `%a` writes: signed zeros, a denormal
      // (glibc prints it as 0x0.…p-1022), the most negative double, the -1
      // toggle sentinel and the infinities.
      std::numeric_limits<double>::denorm_min() * 12345.0,
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::lowest(), -1.0, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  const std::vector<double> back = flow::artifact::decode_doubles(
      flow::artifact::encode_doubles(values));
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::memcmp(&back[i], &values[i], sizeof(double)), 0) << "index " << i;
  }
  const std::vector<double> nan =
      flow::artifact::decode_doubles(flow::artifact::encode_doubles({std::nan(""), -std::nan("")}));
  ASSERT_EQ(nan.size(), 2u);
  EXPECT_TRUE(std::isnan(nan[0]) && !std::signbit(nan[0]));
  EXPECT_TRUE(std::isnan(nan[1]) && std::signbit(nan[1]));
}

TEST_F(OrchestratorTest, DutiesCodecRoundTripsBitwise) {
  std::vector<netlist::InstanceDuty> duties(3);
  duties[0] = {1.0 / 3.0, 2.0 / 7.0};
  duties[1] = {0.0, 1.0};
  duties[2] = {0.123456789012345678, 1e-17};
  const auto back = flow::artifact::decode_duties(flow::artifact::encode_duties(duties));
  ASSERT_EQ(back.size(), duties.size());
  for (std::size_t i = 0; i < duties.size(); ++i) {
    EXPECT_EQ(std::memcmp(&back[i].lambda_p, &duties[i].lambda_p, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&back[i].lambda_n, &duties[i].lambda_n, sizeof(double)), 0);
  }
}

TEST_F(OrchestratorTest, LibraryCodecRoundTripsTheFixtureLibrary) {
  const liberty::Library lib =
      liberty::parse_library_file(std::string(RW_REPO_DIR) + "/examples/fixtures/mini.lib");
  ASSERT_FALSE(lib.cells().empty());
  const std::string once = flow::artifact::encode_library(lib);
  const liberty::Library decoded = flow::artifact::decode_library(once);
  // Re-encoding the decoded library must reproduce the bytes exactly; with a
  // hexfloat-exact codec this is equivalent to full structural equality.
  EXPECT_EQ(flow::artifact::encode_library(decoded), once);
  EXPECT_EQ(decoded.cells().size(), lib.cells().size());
}

TEST_F(OrchestratorTest, DecodersRejectForeignArtifacts) {
  EXPECT_THROW((void)flow::artifact::decode_doubles("not an artifact"), std::runtime_error);
  EXPECT_THROW((void)flow::artifact::decode_duties(flow::artifact::encode_doubles({1.0})),
               std::runtime_error);
  EXPECT_THROW((void)flow::artifact::decode_library("garbage"), std::runtime_error);
  // A number is exactly one `%a` token: no trailing junk, no decimal, no
  // second sign, no '+', no spelled-out infinity, no "0x" before inf/nan.
  for (const char* bad : {"0x1p+0x", "0x1p+0,5", "1.5", "0x-1p+0", "-0x-1p+0", "+0x1p+0", "0x",
                          "-", "0x1q", "infinity", "-nanx", "0X1p+0", "0xinf", "-0xnan",
                          "0x+1p+0"}) {
    EXPECT_THROW((void)flow::artifact::decode_doubles(std::string("rwvec1 1\n") + bad + "\n"),
                 std::runtime_error)
        << bad;
  }
}

TEST_F(OrchestratorTest, DisabledStageReturnsComputeAndWritesNothing) {
  flow::OrchestratorOptions opts;  // dir empty: disabled
  flow::FlowOrchestrator run("test_flow", opts);
  EXPECT_FALSE(run.enabled());
  const std::vector<double> out = run.stage(
      "calc", [] { return std::vector<double>{1.0 / 3.0}; },
      [](const std::vector<double>&) -> std::string {
        ADD_FAILURE() << "encode must not run when orchestration is disabled";
        return "";
      },
      [](const std::string&) -> std::vector<double> {
        ADD_FAILURE() << "decode must not run when orchestration is disabled";
        return {};
      });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 1.0 / 3.0);
  ASSERT_EQ(run.report().stages.size(), 1u);
  EXPECT_EQ(run.report().stages[0].status, "done");
  EXPECT_EQ(run.finish(), 0);
  EXPECT_FALSE(fs::exists(dir_));
}

TEST_F(OrchestratorTest, StagePersistsThenResumesFromDiskWithoutRecomputing) {
  const std::vector<double> payload = {1.0 / 3.0, 4.0 * std::atan(1.0)};
  {
    flow::OrchestratorOptions opts;
    opts.dir = dir_;
    flow::FlowOrchestrator run("test_flow", opts);
    const auto out = run.stage(
        "calc", [&] { return payload; }, flow::artifact::encode_doubles,
        flow::artifact::decode_doubles);
    EXPECT_EQ(out, payload);
    EXPECT_EQ(run.finish(), 0);
  }
  EXPECT_TRUE(fs::exists(dir_ + "/flow_manifest.json"));
  EXPECT_TRUE(fs::exists(dir_ + "/00_calc.art"));
  EXPECT_TRUE(fs::exists(dir_ + "/run_report.json"));

  flow::OrchestratorOptions opts;
  opts.dir = dir_;
  opts.resume = true;
  flow::FlowOrchestrator run("test_flow", opts);
  const auto out = run.stage(
      "calc",
      []() -> std::vector<double> {
        ADD_FAILURE() << "cached stage must not recompute";
        return {};
      },
      flow::artifact::encode_doubles, flow::artifact::decode_doubles);
  EXPECT_EQ(out, payload);
  ASSERT_EQ(run.report().stages.size(), 1u);
  EXPECT_EQ(run.report().stages[0].status, "cached");
}

TEST_F(OrchestratorTest, ResumeAcrossFlowNamesOrCorruptManifestRecomputes) {
  flow::OrchestratorOptions opts;
  opts.dir = dir_;
  {
    flow::FlowOrchestrator run("flow_a", opts);
    (void)run.stage("calc", [] { return std::vector<double>{2.0}; },
                    flow::artifact::encode_doubles, flow::artifact::decode_doubles);
  }

  // A different flow's manifest must not be served.
  opts.resume = true;
  {
    bool computed = false;
    flow::FlowOrchestrator run("flow_b", opts);
    (void)run.stage("calc",
                    [&] {
                      computed = true;
                      return std::vector<double>{2.0};
                    },
                    flow::artifact::encode_doubles, flow::artifact::decode_doubles);
    EXPECT_TRUE(computed);
  }

  // Corrupt manifest: recompute, never refuse to run.
  util::write_file_atomic(dir_ + "/flow_manifest.json", "{\"flow\": 7 ohno");
  {
    bool computed = false;
    flow::FlowOrchestrator run("flow_b", opts);
    (void)run.stage("calc",
                    [&] {
                      computed = true;
                      return std::vector<double>{2.0};
                    },
                    flow::artifact::encode_doubles, flow::artifact::decode_doubles);
    EXPECT_TRUE(computed);
    EXPECT_EQ(run.report().stages[0].status, "done");
  }
}

TEST_F(OrchestratorTest, StaleOrCorruptArtifactRecomputes) {
  flow::OrchestratorOptions opts;
  opts.dir = dir_;
  {
    flow::FlowOrchestrator run("test_flow", opts);
    (void)run.stage("calc", [] { return std::vector<double>{5.0}; },
                    flow::artifact::encode_doubles, flow::artifact::decode_doubles);
  }
  // Truncate the artifact: manifest size check fails -> recompute.
  util::write_file_atomic(dir_ + "/00_calc.art", "x");
  opts.resume = true;
  bool computed = false;
  flow::FlowOrchestrator run("test_flow", opts);
  const auto out = run.stage("calc",
                             [&] {
                               computed = true;
                               return std::vector<double>{5.0};
                             },
                             flow::artifact::encode_doubles, flow::artifact::decode_doubles);
  EXPECT_TRUE(computed);
  EXPECT_EQ(out, std::vector<double>{5.0});
}

TEST_F(OrchestratorTest, FreshRunDropsDivergentLaterStages) {
  flow::OrchestratorOptions opts;
  opts.dir = dir_;
  {
    flow::FlowOrchestrator run("test_flow", opts);
    (void)run.stage("a", [] { return std::vector<double>{1.0}; },
                    flow::artifact::encode_doubles, flow::artifact::decode_doubles);
    (void)run.stage("b", [] { return std::vector<double>{2.0}; },
                    flow::artifact::encode_doubles, flow::artifact::decode_doubles);
  }
  // Re-run (no resume): stage 0 is re-persisted, which must invalidate the
  // old record for stage 1 until it completes again.
  {
    flow::FlowOrchestrator run("test_flow", opts);
    (void)run.stage("a", [] { return std::vector<double>{1.5}; },
                    flow::artifact::encode_doubles, flow::artifact::decode_doubles);
  }
  const std::string manifest = slurp(dir_ + "/flow_manifest.json");
  EXPECT_NE(manifest.find("\"a\""), std::string::npos);
  EXPECT_EQ(manifest.find("\"b\""), std::string::npos);
}

TEST_F(OrchestratorTest, RunReportExitCodesAndJson) {
  flow::RunReport report;
  report.flow = "test_flow";
  EXPECT_EQ(report.exit_code(), 0);
  report.status = "degraded";
  EXPECT_EQ(report.exit_code(), 1);
  report.status = "failed";
  EXPECT_EQ(report.exit_code(), 2);
  report.status = "cancelled";
  report.cancel_reason = "deadline";
  EXPECT_EQ(report.exit_code(), 2);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"flow\""), std::string::npos);
  EXPECT_NE(json.find("\"status\""), std::string::npos);
  EXPECT_NE(json.find("cancelled"), std::string::npos);
  EXPECT_NE(json.find("deadline"), std::string::npos);

  ASSERT_TRUE(report.save(dir_ + "/r.json"));
  EXPECT_EQ(slurp(dir_ + "/r.json"), json);
}

TEST_F(OrchestratorTest, FinishPromotesDegradationAndWritesReport) {
  flow::OrchestratorOptions opts;
  opts.dir = dir_;
  flow::FlowOrchestrator run("test_flow", opts);
  (void)run.stage("calc", [] { return std::vector<double>{1.0}; },
                  flow::artifact::encode_doubles, flow::artifact::decode_doubles);
  run.report().fallbacks = 3;
  EXPECT_EQ(run.finish(), 1);
  EXPECT_EQ(run.report().status, "degraded");
  EXPECT_NE(slurp(dir_ + "/run_report.json").find("degraded"), std::string::npos);
  EXPECT_EQ(run.finish(), 1) << "finish() must be idempotent";
}

TEST_F(OrchestratorTest, FailedAndCancelledStagesAreRecordedAndRethrown) {
  flow::OrchestratorOptions opts;
  opts.dir = dir_;
  {
    flow::FlowOrchestrator run("test_flow", opts);
    EXPECT_THROW((void)run.stage(
                     "boom",
                     []() -> std::vector<double> { throw std::runtime_error("kaput"); },
                     flow::artifact::encode_doubles, flow::artifact::decode_doubles),
                 std::runtime_error);
    EXPECT_EQ(run.finish(), 2);
    EXPECT_EQ(run.report().status, "failed");
    EXPECT_EQ(run.report().stages[0].status, "failed");
    EXPECT_NE(run.report().stages[0].error.find("kaput"), std::string::npos);
  }
  EXPECT_NE(slurp(dir_ + "/run_report.json").find("failed"), std::string::npos);

  {
    flow::FlowOrchestrator run("test_flow", opts);
    EXPECT_THROW((void)run.stage(
                     "boom",
                     []() -> std::vector<double> { throw flow::CancelledError("deadline hit"); },
                     flow::artifact::encode_doubles, flow::artifact::decode_doubles),
                 flow::CancelledError);
    EXPECT_EQ(run.finish(), 2);
    EXPECT_EQ(run.report().status, "cancelled");
    EXPECT_EQ(run.report().cancel_reason, "deadline hit");
  }
  EXPECT_NE(slurp(dir_ + "/run_report.json").find("deadline hit"), std::string::npos);
}

TEST_F(OrchestratorTest, EnabledAndDisabledRunsAgreeBitwise) {
  const auto compute = [] {
    return std::vector<double>{1.0 / 3.0, 2.0 / 7.0, 4.0 * std::atan(1.0), 1e-300};
  };
  flow::OrchestratorOptions disabled;
  flow::FlowOrchestrator plain("test_flow", disabled);
  const auto a = plain.stage("calc", compute, flow::artifact::encode_doubles,
                             flow::artifact::decode_doubles);

  flow::OrchestratorOptions enabled;
  enabled.dir = dir_;
  flow::FlowOrchestrator checkpointed("test_flow", enabled);
  const auto b = checkpointed.stage("calc", compute, flow::artifact::encode_doubles,
                                    flow::artifact::decode_doubles);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0) << "index " << i;
  }
}

TEST_F(OrchestratorTest, Fl001FlagsMissingStaleAndUnparsableManifests) {
  flow::OrchestratorOptions opts;
  opts.dir = dir_;
  {
    flow::FlowOrchestrator run("test_flow", opts);
    (void)run.stage("a", [] { return std::vector<double>{1.0}; },
                    flow::artifact::encode_doubles, flow::artifact::decode_doubles);
    (void)run.stage("b", [] { return std::vector<double>{2.0}; },
                    flow::artifact::encode_doubles, flow::artifact::decode_doubles);
  }
  const std::string manifest = dir_ + "/flow_manifest.json";
  EXPECT_TRUE(flow::lint_flow_manifest(manifest).empty()) << "healthy dir must lint clean";

  fs::remove(dir_ + "/00_a.art");
  util::write_file_atomic(dir_ + "/01_b.art", "stale");
  const auto diags = flow::lint_flow_manifest(manifest);
  ASSERT_EQ(diags.size(), 2u);
  for (const auto& d : diags) {
    EXPECT_EQ(d.rule_id, std::string(lint::rules::kFlowStaleArtifact));
    EXPECT_EQ(d.severity, lint::Severity::kWarning);
    EXPECT_FALSE(d.fix_hint.empty());
  }
  EXPECT_NE(diags[0].message.find("missing"), std::string::npos);
  EXPECT_NE(diags[1].message.find("stale"), std::string::npos);

  util::write_file_atomic(manifest, "]]]]");
  const auto broken = flow::lint_flow_manifest(manifest);
  ASSERT_EQ(broken.size(), 1u);
  EXPECT_NE(broken[0].message.find("malformed"), std::string::npos);

  // A byte count must be an exact integer that fits: an overflowing, negative
  // or fractional one is malformed, never cast (and trusted against a
  // 1-byte artifact).
  util::write_file_atomic(dir_ + "/00_a.art", "x");
  for (const char* bytes : {"1e30", "-1", "1.5"}) {
    util::write_file_atomic(manifest,
                            std::string("{\"flow\":\"test_flow\",\"stages\":[{\"index\":0,"
                                        "\"name\":\"a\",\"status\":\"done\",\"artifact\":"
                                        "\"00_a.art\",\"bytes\":") +
                                bytes + ",\"wall_ms\":0.000}]}\n");
    const auto diags = flow::lint_flow_manifest(manifest);
    ASSERT_EQ(diags.size(), 1u) << bytes;
    EXPECT_NE(diags[0].message.find("malformed"), std::string::npos)
        << bytes << ": " << diags[0].message;
  }
}

}  // namespace
}  // namespace rw
