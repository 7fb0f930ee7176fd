/// The characterization service: protocol codec round-trips, cross-process
/// lease semantics (mutual exclusion under contention, release on holder
/// death), the daemon's crash-only contract (worker SIGKILL, lease-expiry
/// stalls, daemon SIGKILL + restart, client-timeout dedup —
/// each via the seeded serve-chaos harness), graceful overload shedding,
/// SIGTERM drain, and the headline dedup guarantee: two forked clients
/// racing the same (scenario, cell) pair cost exactly one SPICE campaign
/// and read bitwise-identical libraries.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "aging/scenario.hpp"
#include "charlib/factory.hpp"
#include "charlib/opc.hpp"
#include "flow/cancel.hpp"
#include "flow/chaos.hpp"
#include "flow/guardband_flow.hpp"
#include "flow/prove_flow.hpp"
#include "liberty/writer.hpp"
#include "netlist/verilog.hpp"
#include "serve/client.hpp"
#include "serve/gc.hpp"
#include "serve/ops.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/spool.hpp"
#include "spice/stats.hpp"
#include "sta/guardband.hpp"
#include "util/atomic_file.hpp"
#include "util/io.hpp"
#include "util/proc_lease.hpp"
#include "util/thread_pool.hpp"

namespace rw {
namespace {

namespace fs = std::filesystem;

std::string unique_dir(const std::string& stem) {
  return std::string(::testing::TempDir()) + stem + "_" + std::to_string(::getpid());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Publishes a spool entry from a forked owner that then exits without
/// releasing it: the footprint a SIGKILLed daemon leaves (the file stays,
/// the kernel drops the lock). False when the child could not publish.
bool spool_as_dead_owner(const std::string& path, const serve::WorkerTask& task, double ttl_ms) {
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    const auto owner = serve::publish_spool_record(path, task, ttl_ms);
    _exit(owner ? 0 : 1);
  }
  int status = 0;
  return waitpid(pid, &status, 0) == pid && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// Serve tests fork daemons and workers: the shared pool must be size 1 (a
/// child forked while pool threads hold locks would deadlock), and a dead
/// peer must surface as EPIPE, not SIGPIPE.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::set_shared_thread_count(1);
    util::io::ignore_sigpipe();
    flow::cancel_token().clear();
  }
  void TearDown() override {
    flow::cancel_token().clear();
    util::set_shared_thread_count(0);
  }
};

/// Rewinds a file's atime+mtime `seconds_ago` into the past (GC and spool
/// ages are measured from mtime, so tests fabricate idle time instead of
/// sleeping through it).
bool backdate(const std::string& path, double seconds_ago) {
  struct timespec times[2];
  times[0].tv_sec = ::time(nullptr) - static_cast<time_t>(seconds_ago);
  times[0].tv_nsec = 0;
  times[1] = times[0];
  return ::utimensat(AT_FDCWD, path.c_str(), times, 0) == 0;
}

double stat_value(const serve::Response& resp, const std::string& key) {
  for (const auto& [k, v] : resp.stats) {
    if (k == key) return v;
  }
  return 0.0;
}

/// Polls op=stats until `key` reaches `at_least` (daemon-side events like op
/// cancellation land asynchronously after the triggering socket close).
bool poll_stat_at_least(const serve::ClientOptions& copt, const std::string& key,
                        double at_least, int timeout_ms) {
  const auto t0 = std::chrono::steady_clock::now();
  int n = 0;
  for (;;) {
    serve::Request req;
    req.id = "teststat-" + std::to_string(::getpid()) + "-" + std::to_string(n++);
    req.op = "stats";
    try {
      serve::ServeClient client(copt);
      const serve::Response resp = client.request(req);
      if (resp.status == "ok" && stat_value(resp, key) >= at_least) return true;
    } catch (...) {
    }
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    if (elapsed > timeout_ms) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
}

/// Verilog source of the same three-gate DUT chaos_test_module() builds —
/// what a served prove/guardband op parses server-side.
constexpr const char* kDutVerilog =
    "module chaos_dut (input a, input b, input ck, output q);\n"
    "  wire n1;\n"
    "  wire n2;\n"
    "  NAND2_X1 u1 (.A(a), .B(b), .Z(n1));\n"
    "  INV_X1 u2 (.A(n1), .Z(n2));\n"
    "  DFF_X1 r1 (.D(n2), .CK(ck), .Q(q));\n"
    "endmodule\n";

/// Forks a real daemon running Server::run() (same shape as the chaos
/// harness's private helper).
pid_t spawn_daemon(const serve::ServeOptions& options) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  flow::cancel_token().clear();
  flow::install_signal_handlers();  // SIGTERM must drain, as in the rwserved CLI
  int code = 2;
  try {
    serve::Server server(options);
    code = server.run();
  } catch (...) {
  }
  _exit(code);
}

serve::ServeOptions base_options(const std::string& work_dir, const std::string& socket_path) {
  serve::ServeOptions o;
  o.socket_path = socket_path;
  o.workers = 1;
  o.factory = flow::chaos_factory_options();
  o.factory.cache_dir = work_dir + "/cache";
  return o;
}

/// The reference text every served library must match, computed once (a
/// direct in-process LibraryFactory run; ~100 ms on the coarse grid).
const std::string& reference_library() {
  static const std::string text = flow::serve_reference_library();
  return text;
}

flow::ServeChaosPlan plan(const std::string& kind) {
  flow::ServeChaosPlan p;
  p.seed = 7777;  // fixed: these tests pin the kind, not the seed derivation
  p.kind = kind;
  p.after_dispatch = 1;
  p.workers = 2;
  if (kind == "hang") {
    // Lease escalation (x2 per redelivery) absorbs slow machines: under
    // TSan a clean coarse-grid characterization can itself outlast the
    // first lease, and must NOT end in quarantine.
    p.lease_ms = 300.0;
    p.hang_ms = 700.0;
  } else if (kind == "client_timeout") {
    p.lease_ms = 5000.0;
    p.hang_ms = 500.0;
  }
  return p;
}

// ---------------------------------------------------------------------------
// Protocol codec

TEST(ServeProtocol, RequestRoundTripsThroughJson) {
  serve::Request req;
  req.id = "id with \"quotes\" and \\slashes\\";
  req.op = "merged";
  req.cell = "NAND2_X1";
  req.lambda_p = 0.125;
  req.lambda_n = 1.0 / 3.0;  // not representable in decimal: %.17g must hold it
  req.years = 10.0;
  req.include_mobility = false;
  req.corners = {{0.0, 1.0}, {0.5, 0.25}};

  serve::Request back;
  std::string error;
  ASSERT_TRUE(serve::parse_request(serve::to_json(req), back, error)) << error;
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.op, req.op);
  EXPECT_EQ(back.cell, req.cell);
  EXPECT_EQ(back.lambda_p, req.lambda_p);
  EXPECT_EQ(back.lambda_n, req.lambda_n);  // bitwise: %.17g round-trip
  EXPECT_EQ(back.years, req.years);
  EXPECT_EQ(back.include_mobility, req.include_mobility);
  ASSERT_EQ(back.corners.size(), 2u);
  EXPECT_EQ(back.corners[1][0], 0.5);
  EXPECT_EQ(back.corners[1][1], 0.25);
}

TEST(ServeProtocol, ResponseRoundTripsAndToleratesUnknownKeys) {
  serve::Response resp;
  resp.id = "r1";
  resp.status = "ok";
  resp.library = "library (x) {\n  line\n}\n";  // embedded newlines must escape
  resp.retry_after_ms = 250.0;
  resp.stats = {{"tasks_done", 3.0}, {"dispatches", 4.0}};

  serve::Response back;
  std::string error;
  ASSERT_TRUE(serve::parse_response(serve::to_json(resp), back, error)) << error;
  EXPECT_EQ(back.library, resp.library);
  EXPECT_EQ(back.retry_after_ms, 250.0);
  ASSERT_EQ(back.stats.size(), 2u);
  EXPECT_EQ(back.stats[0].first, "tasks_done");

  // Unknown keys (forward compatibility) are skipped, including nested ones.
  const std::string extended =
      "{\"id\":\"r2\",\"status\":\"ok\",\"future\":{\"nested\":[1,2,{\"x\":true}]},"
      "\"note\":\"hi\"}";
  serve::Response ext;
  ASSERT_TRUE(serve::parse_response(extended, ext, error)) << error;
  EXPECT_EQ(ext.id, "r2");
  EXPECT_EQ(ext.status, "ok");
}

TEST(ServeProtocol, MalformedLinesAreRejectedNotCrashed) {
  serve::Request req;
  std::string error;
  EXPECT_FALSE(serve::parse_request("", req, error));
  EXPECT_FALSE(serve::parse_request("not json", req, error));
  EXPECT_FALSE(serve::parse_request("{\"id\":", req, error));
  EXPECT_FALSE(serve::parse_request("{\"id\":\"unterminated", req, error));
  EXPECT_FALSE(error.empty());
}

/// A request whose unknown member nests `depth` arrays — 100 k levels is a
/// 200 KB line, well inside what one client can send.
std::string deeply_nested_request(std::size_t depth) {
  return "{\"id\":\"x\",\"op\":\"ping\",\"junk\":" + std::string(depth, '[') +
         std::string(depth, ']') + "}";
}

TEST(ServeProtocol, ADeeplyNestedRequestIsRejectedNotRecursedInto) {
  serve::Request req;
  std::string error;
  EXPECT_FALSE(serve::parse_request(deeply_nested_request(100000), req, error));
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;
}

TEST(ServeProtocol, WorkerFramesRoundTrip) {
  serve::WorkerTask task;
  task.task = "3x3/L0.50_0.50_y10/NAND2_X1";
  task.cell = "NAND2_X1";
  task.lambda_p = 0.5;
  task.lambda_n = 0.5;
  task.years = 10.0;
  task.hang_ms = 123.5;
  serve::WorkerTask task_back;
  std::string error;
  ASSERT_TRUE(serve::parse_worker_task(serve::to_json(task), task_back, error)) << error;
  EXPECT_EQ(task_back.task, task.task);
  EXPECT_EQ(task_back.hang_ms, 123.5);
  EXPECT_FALSE(task_back.exit_now);

  serve::WorkerReply reply;
  reply.task = task.task;
  reply.status = "failed";
  reply.error = "solver exhausted the retry ladder";
  reply.permanent = true;
  serve::WorkerReply reply_back;
  ASSERT_TRUE(serve::parse_worker_reply(serve::to_json(reply), reply_back, error)) << error;
  EXPECT_EQ(reply_back.status, "failed");
  EXPECT_TRUE(reply_back.permanent);
}

// ---------------------------------------------------------------------------
// Lease files (the cross-process dedup primitive)

TEST(ServeLease, AcquireContendReleaseAndTakeOverUnheldDebris) {
  const std::string dir = unique_dir("lease");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/cell.lib.lease";

  auto lease = util::FileLease::try_acquire(path);
  ASSERT_TRUE(lease.has_value());
  EXPECT_TRUE(util::held(path));
  // A second open() in this very process contends like another process.
  EXPECT_FALSE(util::FileLease::try_acquire(path).has_value());
  lease->release();
  EXPECT_FALSE(fs::exists(path));  // released = unlinked
  EXPECT_FALSE(util::held(path));
  EXPECT_TRUE(util::FileLease::try_acquire(path).has_value());  // free again

  // Crash debris — a leftover file nobody locks, whatever its body — is
  // not held and is simply taken over; releasing it removes it.
  std::ofstream(path) << "{\"pid\":999999999,\"ttl_ms\":60000}\n";
  EXPECT_FALSE(util::held(path));
  auto taken = util::FileLease::try_acquire(path);
  ASSERT_TRUE(taken.has_value());
  EXPECT_TRUE(util::held(path));
  taken->release();
  EXPECT_FALSE(fs::exists(path));
}

TEST(ServeLease, AcquireCreatesMissingParentDirectories) {
  // Regression: the first lease under a scenario directory nobody has
  // published into yet (the cache creates dirs only on WRITE) used to fail
  // with ENOENT forever, wedging followers in the poll loop.
  const std::string dir = unique_dir("lease_parent");
  fs::remove_all(dir);
  const std::string path = dir + "/3x3/L0.50_0.50_y10/NAND2_X1.lib.lease";
  auto lease = util::FileLease::try_acquire(path);
  ASSERT_TRUE(lease.has_value());
  EXPECT_TRUE(fs::exists(path));
}

TEST_F(ServeTest, ABatchOfMorePairsThanTheDescriptorLimitLeadsEveryPair) {
  // A lease is an open descriptor until its pair is published, so a batch
  // must not hold one per pair: a merged() over more uncached pairs than
  // RLIMIT_NOFILE allows runs in rounds. Running out of descriptors must
  // read as an error, never as another process leading.
  const std::string dir = unique_dir("lease_rlimit");
  fs::remove_all(dir);
  fs::create_directories(dir);
  charlib::LibraryFactory::Options opt;
  opt.characterize.grid = charlib::OpcGrid::single(60.0, 4.0);
  opt.cell_subset = {"INV_X1"};
  opt.cache_dir = dir + "/cache";
  opt.use_manifest = false;
  std::vector<aging::AgingScenario> corners;
  for (int p = 0; p < 9; ++p) {
    for (int n = 0; n < 9; ++n) corners.push_back({0.1 * p, 0.1 * n, 10.0, true});
  }
  constexpr rlim_t kFdLimit = 64;
  ASSERT_GT(corners.size(), kFdLimit);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    struct rlimit lim {};
    if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) _exit(10);
    lim.rlim_cur = kFdLimit;
    if (::setrlimit(RLIMIT_NOFILE, &lim) != 0) _exit(10);
    try {
      charlib::LibraryFactory factory(opt);
      (void)factory.merged(corners);
      if (!factory.quarantined().empty()) _exit(11);
    } catch (...) {
      _exit(12);
    }
    // With every descriptor in use, acquiring is an I/O error.
    while (::open("/dev/null", O_RDONLY) >= 0) {
    }
    try {
      (void)util::FileLease::try_acquire(dir + "/full.lease");
      _exit(13);
    } catch (const std::system_error& e) {
      _exit(e.code() == std::errc::too_many_files_open ? 0 : 14);
    }
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  std::size_t libs = 0;
  std::size_t leases = 0;
  for (const auto& entry : fs::recursive_directory_iterator(opt.cache_dir)) {
    const std::string name = entry.path().filename().string();
    libs += static_cast<std::size_t>(name == "INV_X1.lib");
    leases += static_cast<std::size_t>(entry.path().extension() == ".lease");
  }
  EXPECT_EQ(libs, corners.size());
  EXPECT_EQ(leases, 0u);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Crash-only service contract, one seeded trial per failure mode. Each trial
// forks a REAL daemon, runs a real client, and grades bitwise identity
// against the direct-factory reference.

TEST_F(ServeTest, CleanTrialServesBitwiseIdenticalToDirectFactory) {
  const flow::ChaosTrialResult t =
      flow::run_serve_chaos_trial(plan("clean"), unique_dir("serve_clean"), reference_library());
  EXPECT_EQ(t.outcome, "ok") << t.detail;
}

TEST_F(ServeTest, WorkerSigkillIsReapedRespawnedAndRedelivered) {
  const flow::ChaosTrialResult t = flow::run_serve_chaos_trial(
      plan("kill_worker"), unique_dir("serve_kill_worker"), reference_library());
  EXPECT_EQ(t.outcome, "failed_then_resumed") << t.detail;
}

TEST_F(ServeTest, StalledTaskExpiresItsLeaseAndIsRedelivered) {
  const flow::ChaosTrialResult t =
      flow::run_serve_chaos_trial(plan("hang"), unique_dir("serve_hang"), reference_library());
  EXPECT_EQ(t.outcome, "failed_then_resumed") << t.detail;
}

TEST_F(ServeTest, DaemonSigkillRestartCompletesTheSameRequestId) {
  const flow::ChaosTrialResult t = flow::run_serve_chaos_trial(
      plan("kill_daemon"), unique_dir("serve_kill_daemon"), reference_library());
  EXPECT_EQ(t.outcome, "failed_then_resumed") << t.detail;
}

TEST_F(ServeTest, ClientTimeoutResendsDedupInsteadOfRecomputing) {
  const flow::ChaosTrialResult t = flow::run_serve_chaos_trial(
      plan("client_timeout"), unique_dir("serve_client_timeout"), reference_library());
  EXPECT_EQ(t.outcome, "failed_then_resumed") << t.detail;
}

// ---------------------------------------------------------------------------
// Overload + drain

TEST_F(ServeTest, OverloadShedsBoundedlyAndTheDaemonStaysResponsive) {
  const std::string dir = unique_dir("serve_overload");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string socket_path =
      "/tmp/rwservetest_ovl_" + std::to_string(::getpid()) + ".sock";
  serve::ServeOptions options = base_options(dir, socket_path);
  options.queue_max = 1;        // a library request needs 3 tasks: always shed
  options.retry_after_ms = 20.0;  // keep the client's shed loop fast
  const pid_t daemon = spawn_daemon(options);
  ASSERT_GT(daemon, 0);

  serve::ClientOptions copt;
  copt.socket_path = socket_path;
  copt.timeout_ms = 5000;
  copt.max_attempts = 2;

  serve::Request req;
  req.id = "overload-1";
  req.op = "library";
  req.lambda_p = 0.5;
  req.lambda_n = 0.5;
  req.years = 10.0;
  bool threw = false;
  try {
    serve::ServeClient client(copt);
    (void)client.request(req);
  } catch (const std::exception& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("overloaded"), std::string::npos) << e.what();
  }
  EXPECT_TRUE(threw);

  // Shedding is graceful: the daemon still answers control traffic.
  serve::Request ping;
  ping.id = "overload-ping";
  ping.op = "ping";
  serve::ServeClient client(copt);
  EXPECT_EQ(client.request(ping).status, "ok");

  serve::Request bye;
  bye.id = "overload-bye";
  bye.op = "shutdown";
  EXPECT_EQ(client.request(bye).status, "ok");
  int status = 0;
  ASSERT_EQ(waitpid(daemon, &status, 0), daemon);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  ::unlink(socket_path.c_str());
}

TEST_F(ServeTest, ANestedOrConcatenatedFrameGetsABadRequestAndTheDaemonStaysUp) {
  const std::string dir = unique_dir("serve_nested");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string socket_path =
      "/tmp/rwservetest_nst_" + std::to_string(::getpid()) + ".sock";
  const pid_t daemon = spawn_daemon(base_options(dir, socket_path));
  ASSERT_GT(daemon, 0);

  serve::ClientOptions copt;
  copt.socket_path = socket_path;
  copt.timeout_ms = 5000;
  serve::Request ping;
  ping.id = "nested-ping-1";
  ping.op = "ping";
  {
    serve::ServeClient client(copt);
    ASSERT_EQ(client.request(ping).status, "ok");  // the daemon is listening
  }

  // A frame nested past the bound, and a whole request followed by the
  // start of another (a corrupted stream), each get a bad-request reply.
  for (const std::string& frame :
       {deeply_nested_request(100000),
        std::string("{\"id\":\"x\",\"op\":\"ping\"}{\"id\":\"y\"} junk")}) {
    const int fd = util::io::connect_unix(socket_path);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(util::io::write_all(fd, frame + "\n"));
    util::io::LineReader reader(fd);
    std::string line;
    ASSERT_EQ(reader.read_line(line, 10000), util::io::LineReader::Status::kLine)
        << "the daemon died instead of answering";
    ::close(fd);
    serve::Response resp;
    std::string error;
    ASSERT_TRUE(serve::parse_response(line, resp, error)) << error;
    EXPECT_EQ(resp.status, "error");
    EXPECT_EQ(resp.error.rfind("bad request: ", 0), 0u) << resp.error;
  }

  ping.id = "nested-ping-2";
  serve::ServeClient client(copt);
  EXPECT_EQ(client.request(ping).status, "ok");
  serve::Request bye;
  bye.id = "nested-bye";
  bye.op = "shutdown";
  EXPECT_EQ(client.request(bye).status, "ok");
  int status = 0;
  ASSERT_EQ(waitpid(daemon, &status, 0), daemon);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  ::unlink(socket_path.c_str());
}

TEST_F(ServeTest, SigtermDrainsToExitZeroAndWritesTheReport) {
  const std::string dir = unique_dir("serve_drain");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string socket_path =
      "/tmp/rwservetest_drn_" + std::to_string(::getpid()) + ".sock";
  serve::ServeOptions options = base_options(dir, socket_path);
  options.report_path = dir + "/report.json";
  const pid_t daemon = spawn_daemon(options);
  ASSERT_GT(daemon, 0);

  // Wait for the socket to answer, then deliver SIGTERM.
  serve::ClientOptions copt;
  copt.socket_path = socket_path;
  copt.timeout_ms = 5000;
  serve::Request ping;
  ping.id = "drain-ping";
  ping.op = "ping";
  {
    serve::ServeClient client(copt);
    ASSERT_EQ(client.request(ping).status, "ok");
  }
  ASSERT_EQ(::kill(daemon, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(waitpid(daemon, &status, 0), daemon);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  const std::string report = read_file(options.report_path);
  EXPECT_NE(report.find("\"status\": \"ok\""), std::string::npos) << report;
  EXPECT_NE(report.find("\"requests\""), std::string::npos) << report;
  // The drain unlinked its socket.
  EXPECT_FALSE(fs::exists(socket_path));
}

// ---------------------------------------------------------------------------
// The headline guarantee: concurrent duplicate requests from two PROCESSES
// cost exactly one SPICE campaign, and both observers read identical bytes.

TEST_F(ServeTest, TwoForkedClientsSamePairRunExactlyOneSpiceCampaign) {
  const std::string dir = unique_dir("serve_dedup");
  fs::remove_all(dir);
  fs::create_directories(dir);

  charlib::LibraryFactory::Options opt = flow::chaos_factory_options();
  opt.cell_subset = {"NAND2_X1"};
  opt.cache_dir = dir + "/cache";
  opt.use_manifest = false;  // keep the two processes' bookkeeping independent
  const aging::AgingScenario scenario = flow::serve_chaos_scenario();

  // Reference: what one campaign costs (and produces) without any cache.
  spice::reset_solver_counters();
  std::string ref_text;
  {
    charlib::LibraryFactory::Options ref_opt = opt;
    ref_opt.cache_dir.clear();
    charlib::LibraryFactory ref(ref_opt);
    ref_text = liberty::write_library(ref.library(scenario));
  }
  const std::uint64_t ref_attempts = spice::solver_counters().transient_attempts;
  ASSERT_GT(ref_attempts, 0u);

  pid_t pids[2] = {-1, -1};
  for (int i = 0; i < 2; ++i) {
    pids[i] = fork();
    ASSERT_GE(pids[i], 0);
    if (pids[i] == 0) {
      spice::reset_solver_counters();
      try {
        charlib::LibraryFactory factory(opt);
        const std::string text = liberty::write_library(factory.library(scenario));
        util::write_file_atomic(dir + "/child" + std::to_string(i) + ".lib", text);
        util::write_file_atomic(
            dir + "/child" + std::to_string(i) + ".count",
            std::to_string(spice::solver_counters().transient_attempts));
        _exit(0);
      } catch (...) {
        _exit(3);
      }
    }
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  const std::uint64_t c0 = std::stoull(read_file(dir + "/child0.count"));
  const std::uint64_t c1 = std::stoull(read_file(dir + "/child1.count"));
  // Exactly one campaign total: the loser waited on the winner's lease (or
  // found the published file) and solved NOTHING.
  EXPECT_EQ(c0 + c1, ref_attempts) << "c0=" << c0 << " c1=" << c1;
  EXPECT_EQ(std::min(c0, c1), 0u);

  // Both observers — and the cache-less reference — read identical bytes.
  const std::string t0 = read_file(dir + "/child0.lib");
  const std::string t1 = read_file(dir + "/child1.lib");
  ASSERT_FALSE(t0.empty());
  EXPECT_EQ(t0, t1);
  EXPECT_EQ(t0, ref_text);
}

// ---------------------------------------------------------------------------
// Client retry jitter: backoff is FULL jitter (uniform over [0, cap)), shed
// waits are EQUAL jitter (never before half the Retry-After hint). Pinned
// seeds make the spread assertable.

TEST(ServeClientJitter, BackoffIsFullJitterAndShedIsEqualJitter) {
  serve::ClientOptions opt;
  opt.backoff_base_ms = 100.0;
  opt.jitter_seed = 42;
  serve::ServeClient client(opt);

  const double cap = 100.0 * 4.0;  // attempt 3: base * 2^2
  double lo = cap;
  double hi = 0.0;
  for (int i = 0; i < 64; ++i) {
    const double d = client.backoff_delay_ms(3);
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, cap);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  // 64 uniform draws span the range (each bound fails with p = (3/4)^64).
  EXPECT_LT(lo, 0.25 * cap);
  EXPECT_GT(hi, 0.75 * cap);

  // The exponent clamps at 2^10: a long outage cannot overflow the cap.
  EXPECT_LT(client.backoff_delay_ms(40), 100.0 * 1024.0);

  // Shed delays honor at least half the daemon's hint, never the full hint.
  for (int i = 0; i < 64; ++i) {
    const double d = client.shed_delay_ms(200.0);
    ASSERT_GE(d, 100.0);
    ASSERT_LT(d, 200.0);
  }
  // A zero/absent hint falls back to 100 ms worth of politeness.
  const double fallback = client.shed_delay_ms(0.0);
  EXPECT_GE(fallback, 50.0);
  EXPECT_LT(fallback, 100.0);
}

TEST(ServeClientJitter, SeedsPinAndDecorrelateTheDelaySequence) {
  const auto sample = [](std::uint64_t seed) {
    serve::ClientOptions opt;
    opt.jitter_seed = seed;
    serve::ServeClient client(opt);
    std::vector<double> out;
    for (int i = 0; i < 8; ++i) out.push_back(client.backoff_delay_ms(5));
    return out;
  };
  EXPECT_EQ(sample(1), sample(1));  // reproducible
  EXPECT_NE(sample(1), sample(2));  // decorrelated
}

// ---------------------------------------------------------------------------
// Lease edge cases: locks taken outside the primitive, holder death, the
// contender that opened a file its holder then released, and mutual
// exclusion under many-process contention.

/// A whole-file OFD write lock on `fd`, as util::FileLease takes it.
bool ofd_lock(int fd) {
  struct flock fl {};
  fl.l_type = F_WRLCK;
  fl.l_whence = SEEK_SET;
  return ::fcntl(fd, F_OFD_SETLK, &fl) == 0;
}

TEST(ServeLease, ALockTakenThroughAnotherOpenInThisProcessReadsAsHeld) {
  const std::string dir = unique_dir("lease_ofd");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/cell.lib.lease";

  const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_FALSE(util::held(path));  // an open file is not a lock
  ASSERT_TRUE(ofd_lock(fd));
  EXPECT_TRUE(util::held(path));
  EXPECT_FALSE(util::FileLease::try_acquire(path).has_value());
  // held() opens and closes its own descriptor; unlike a classic POSIX
  // lock, that close must not drop the lock held through `fd`.
  EXPECT_TRUE(util::held(path));
  ::close(fd);
  EXPECT_FALSE(util::held(path));
  EXPECT_TRUE(util::FileLease::try_acquire(path).has_value());
}

TEST(ServeLease, TheKernelFreesADeadHoldersLockButNeverAWedgedOnes) {
  const std::string dir = unique_dir("lease_death");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/cell.lib.lease";

  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(ready[0]);
    auto lease = util::FileLease::try_acquire(path);
    const char byte = lease ? 'y' : 'n';
    (void)!::write(ready[1], &byte, 1);
    for (;;) ::pause();  // a wedged leader: alive, holding, never releasing
  }
  ::close(ready[1]);
  char byte = 0;
  ASSERT_EQ(::read(ready[0], &byte, 1), 1);
  ::close(ready[0]);
  ASSERT_EQ(byte, 'y');

  // No TTL: however long the holder has been idle, it still leads.
  ASSERT_TRUE(backdate(path, 3600.0));
  EXPECT_TRUE(util::held(path));
  EXPECT_FALSE(util::FileLease::try_acquire(path).has_value());

  // SIGKILL gives the holder no chance to clean up; its file stays behind,
  // but the lock died with it, so the next contender leads.
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(util::held(path));
  EXPECT_TRUE(util::FileLease::try_acquire(path).has_value());
}

TEST(ServeLease, AContenderThatOpenedBeforeTheReleaseDoesNotLead) {
  const std::string dir = unique_dir("lease_dead_inode");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/cell.lib.lease";

  auto holder = util::FileLease::try_acquire(path);
  ASSERT_TRUE(holder.has_value());
  // A contender's open() lands on the holder's file just before release...
  const int early = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  ASSERT_GE(early, 0);
  holder->release();
  // ...and a third process creates a fresh file and leads on it.
  auto next = util::FileLease::try_acquire(path);
  ASSERT_TRUE(next.has_value());
  // The contender's lock now succeeds, but on the unlinked inode: leading
  // there would overlap `next`. try_acquire checks the locked inode is
  // still the one at `path` and otherwise contends for the current file,
  // which `next` holds.
  EXPECT_TRUE(ofd_lock(early));
  struct stat locked {};
  struct stat current {};
  ASSERT_EQ(::fstat(early, &locked), 0);
  ASSERT_EQ(::stat(path.c_str(), &current), 0);
  EXPECT_NE(locked.st_ino, current.st_ino);
  EXPECT_TRUE(util::held(path));
  EXPECT_FALSE(util::FileLease::try_acquire(path).has_value());
  ::close(early);
}

TEST(ServeLease, EightContendersNeverHoldAtOnceOverAThousandRoundsEach) {
  // Every holder increments a shared count under the lease, checks it saw
  // no other holder, and decrements it before releasing. Contenders race
  // the whole release window: open before the holder's unlink, lock after
  // its close, and create a fresh file while others still hold a dead one.
  const std::string dir = unique_dir("lease_stress");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/cell.lib.lease";
  const std::string holders_path = dir + "/holders";
  {
    const std::int32_t zero = 0;
    std::ofstream(holders_path, std::ios::binary)
        .write(reinterpret_cast<const char*>(&zero), sizeof zero);
  }
  constexpr int kContenders = 8;
  constexpr int kRounds = 1000;

  std::vector<pid_t> pids;
  for (int i = 0; i < kContenders; ++i) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      const int holders = ::open(holders_path.c_str(), O_RDWR | O_CLOEXEC);
      if (holders < 0) _exit(4);
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
      for (int round = 0; round < kRounds;) {
        auto lease = util::FileLease::try_acquire(path);
        if (!lease) {
          if (std::chrono::steady_clock::now() > deadline) _exit(3);  // starved
          std::this_thread::yield();
          continue;
        }
        std::int32_t count = -1;
        if (::pread(holders, &count, sizeof count, 0) != sizeof count) _exit(4);
        ++count;
        if (::pwrite(holders, &count, sizeof count, 0) != sizeof count) _exit(4);
        if (count != 1) _exit(1);  // another holder is inside too
        std::this_thread::yield();
        if (::pread(holders, &count, sizeof count, 0) != sizeof count) _exit(4);
        if (count != 1) _exit(1);
        --count;
        if (::pwrite(holders, &count, sizeof count, 0) != sizeof count) _exit(4);
        lease->release();
        ++round;
      }
      _exit(0);
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "1: overlapping holders, 3: starved, 4: I/O";
  }
  std::int32_t final_count = -1;
  std::ifstream(holders_path, std::ios::binary)
      .read(reinterpret_cast<char*>(&final_count), sizeof final_count);
  EXPECT_EQ(final_count, 0);
  EXPECT_FALSE(fs::exists(path));  // every round released (unlinked) its file
}

// ---------------------------------------------------------------------------
// The fleet work spool: one file is both a WorkerTask document and a lease.

TEST(ServeSpool, RecordRoundTripsAndDoublesAsALease) {
  const std::string dir = unique_dir("spool_rt");
  fs::remove_all(dir);
  const std::string sd = serve::spool_dir(dir + "/3x3");

  serve::WorkerTask wt;
  wt.task = "L0.50_0.50_y10/NAND2_X1";
  wt.cell = "NAND2_X1";
  wt.lambda_p = 0.5;
  wt.lambda_n = 0.5;
  wt.years = 10.0;
  const std::string path = serve::spool_path(sd, wt.task);
  auto owner = serve::publish_spool_record(path, wt, 1234.0);
  ASSERT_TRUE(owner.has_value());

  serve::SpoolRecord rec;
  ASSERT_TRUE(serve::read_spool_record(path, rec));
  EXPECT_EQ(rec.ttl_ms, 1234.0);
  EXPECT_LT(rec.age_ms, 1234.0);  // just published
  EXPECT_EQ(rec.task.task, wt.task);
  EXPECT_EQ(rec.task.cell, wt.cell);
  EXPECT_EQ(rec.task.lambda_p, 0.5);
  EXPECT_EQ(rec.task.years, 10.0);

  // The published file is locked by its owner from the first byte a peer
  // can read; an entry nobody holds is a dead owner's, adoptable.
  EXPECT_TRUE(util::held(path));
  const std::vector<std::string> tasks = serve::list_spool_tasks(sd);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0], path);
  owner->release();  // task completed: unspooled
  EXPECT_TRUE(serve::list_spool_tasks(sd).empty());

  ASSERT_TRUE(spool_as_dead_owner(path, wt, 1234.0));
  EXPECT_FALSE(util::held(path));
  ASSERT_TRUE(serve::read_spool_record(path, rec));
  EXPECT_EQ(rec.task.task, wt.task);
}

// ---------------------------------------------------------------------------
// GC sweeps: age out idle entries, never touch leased/spooled ones, complete
// interrupted evictions, and honor the livelock idle floor.

TEST(ServeGc, SweepEvictsIdleSkipsProtectedAndCompletesTombstones) {
  const std::string root = unique_dir("gc_sweep");
  fs::remove_all(root);
  const std::string scen = root + "/3x3/L0.50_0.50_y10";
  fs::create_directories(scen);
  const auto entry = [&](const std::string& cell) {
    const std::string lib = scen + "/" + cell + ".lib";
    std::ofstream(lib) << "library (" << cell << ") {}\n";
    std::ofstream(charlib::LibraryFactory::usage_stamp_path(lib)) << "\n";
    return lib;
  };

  // OLD: an hour idle — evicted. LEASED: equally idle but actively held.
  // RECENT: just published. TOMB: a sweep died between intent and unlink.
  // SPOOLED: queued on some daemon (possibly a dead one, pre-adoption).
  const std::string old_lib = entry("OLD");
  ASSERT_TRUE(backdate(old_lib, 3600.0));
  ASSERT_TRUE(backdate(charlib::LibraryFactory::usage_stamp_path(old_lib), 3600.0));

  const std::string leased_lib = entry("LEASED");
  ASSERT_TRUE(backdate(leased_lib, 3600.0));
  ASSERT_TRUE(backdate(charlib::LibraryFactory::usage_stamp_path(leased_lib), 3600.0));
  auto lease = util::FileLease::try_acquire(leased_lib + ".lease");
  ASSERT_TRUE(lease.has_value());

  const std::string recent_lib = entry("RECENT");

  const std::string tomb_lib = entry("TOMB");
  std::ofstream(tomb_lib + ".tomb") << "{\"gc\":\"tombstone\"}\n";

  const std::string spooled_lib = entry("SPOOLED");
  ASSERT_TRUE(backdate(spooled_lib, 3600.0));
  ASSERT_TRUE(backdate(charlib::LibraryFactory::usage_stamp_path(spooled_lib), 3600.0));
  serve::WorkerTask wt;
  wt.task = "L0.50_0.50_y10/SPOOLED";
  wt.cell = "SPOOLED";
  wt.lambda_p = 0.5;
  wt.lambda_n = 0.5;
  wt.years = 10.0;
  ASSERT_TRUE(spool_as_dead_owner(
      serve::spool_path(serve::spool_dir(root + "/3x3"), wt.task), wt, 60000.0));

  serve::GcOptions opt;
  opt.cache_dir = root;
  opt.max_age_ms = 1000.0;
  const serve::GcResult res = serve::gc_sweep(opt);

  EXPECT_EQ(res.evicted, 1u);
  EXPECT_EQ(res.skipped_leased, 1u);
  EXPECT_EQ(res.skipped_quarantined, 1u);  // the spooled pair
  EXPECT_EQ(res.skipped_recent, 1u);
  EXPECT_EQ(res.tombstones_completed, 1u);

  EXPECT_FALSE(fs::exists(old_lib));
  EXPECT_FALSE(fs::exists(charlib::LibraryFactory::usage_stamp_path(old_lib)));
  EXPECT_FALSE(fs::exists(old_lib + ".tomb"));  // eviction ran to completion
  EXPECT_TRUE(fs::exists(leased_lib));
  EXPECT_TRUE(fs::exists(recent_lib));
  EXPECT_FALSE(fs::exists(tomb_lib));           // interrupted sweep completed
  EXPECT_FALSE(fs::exists(tomb_lib + ".tomb"));
  EXPECT_TRUE(fs::exists(spooled_lib));
}

TEST(ServeGc, MinIdleFloorKeepsJustPublishedEntriesEvenAtMaxAgeZero) {
  // The livelock guard: an aggressive sweep cadence (max_age_ms=0, as the
  // fleet chaos campaign uses) must not evict entries a concurrent request
  // published moments ago, or GC and characterization chase each other
  // forever.
  const std::string root = unique_dir("gc_floor");
  fs::remove_all(root);
  const std::string scen = root + "/3x3/L0.50_0.50_y10";
  fs::create_directories(scen);
  const std::string lib = scen + "/INV_X1.lib";
  std::ofstream(lib) << "library (INV_X1) {}\n";
  std::ofstream(charlib::LibraryFactory::usage_stamp_path(lib)) << "\n";

  serve::GcOptions opt;
  opt.cache_dir = root;
  opt.max_age_ms = 0.0;
  const serve::GcResult res = serve::gc_sweep(opt);
  EXPECT_EQ(res.evicted, 0u);
  EXPECT_EQ(res.skipped_recent, 1u);
  EXPECT_TRUE(fs::exists(lib));
}

TEST(ServeGc, DryRunCountsWithoutDeleting) {
  const std::string root = unique_dir("gc_dry");
  fs::remove_all(root);
  const std::string scen = root + "/3x3/L0.50_0.50_y10";
  fs::create_directories(scen);
  const std::string lib = scen + "/INV_X1.lib";
  std::ofstream(lib) << "library (INV_X1) {}\n";
  ASSERT_TRUE(backdate(lib, 3600.0));

  serve::GcOptions opt;
  opt.cache_dir = root;
  opt.max_age_ms = 1000.0;
  opt.dry_run = true;
  const serve::GcResult res = serve::gc_sweep(opt);
  EXPECT_EQ(res.evicted, 1u);
  EXPECT_TRUE(fs::exists(lib));
  EXPECT_FALSE(fs::exists(lib + ".tomb"));
}

// ---------------------------------------------------------------------------
// Fleet trials, one per failure mode (the 20-seed campaign runs as the
// rwchaos_serve_fleet ctest entry; these pin one deterministic plan each).

TEST_F(ServeTest, FleetDaemonSigkillIsAdoptedByItsPeer) {
  flow::FleetChaosPlan p;
  p.seed = 4242;
  p.kind = "kill_daemon_mid_load";
  p.after_dispatch = 1;
  p.workers = 2;
  const flow::ChaosTrialResult t =
      flow::run_serve_fleet_trial(p, unique_dir("fleet_kill"), reference_library());
  EXPECT_EQ(t.outcome, "failed_then_resumed") << t.detail;
}

TEST_F(ServeTest, FleetGcDuringCharacterizationNeverChangesTheBytes) {
  flow::FleetChaosPlan p;
  p.seed = 4243;
  p.kind = "gc_during_char";
  p.after_dispatch = 1;
  p.hang_ms = 900.0;
  p.workers = 2;
  const flow::ChaosTrialResult t =
      flow::run_serve_fleet_trial(p, unique_dir("fleet_gc"), reference_library());
  // "ok" means the (timing-dependent) eviction window was missed — the
  // bitwise-identity grading inside the trial still ran either way.
  EXPECT_TRUE(t.outcome == "failed_then_resumed" || t.outcome == "ok")
      << t.outcome << ": " << t.detail;
}

TEST_F(ServeTest, FleetWedgedDaemonsSpoolIsStolenByItsPeer) {
  flow::FleetChaosPlan p;
  p.seed = 4244;
  p.kind = "lease_steal";
  p.after_dispatch = 1;
  p.hang_ms = 2000.0;
  p.workers = 1;
  const flow::ChaosTrialResult t =
      flow::run_serve_fleet_trial(p, unique_dir("fleet_steal"), reference_library());
  EXPECT_EQ(t.outcome, "failed_then_resumed") << t.detail;
}

TEST_F(ServeTest, AnOrphanedWorkerDoesNotKeepItsDeadDaemonsSpoolLocked) {
  // The daemon's spool locks live as long as ANY descriptor shares them, so
  // a worker forked while a task is spooled must close them. Here the first
  // worker is SIGKILLed right after dispatch; its respawn (forked with the
  // task spooled) gets the redelivery and stalls in it, and the daemon
  // SIGKILLs itself on that dispatch. The stalled orphan outlives the
  // daemon, yet the spool entry must be free for a peer to adopt at once.
  const std::string dir = unique_dir("serve_orphan_spool");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string socket_path =
      "/tmp/rwservetest_orph_" + std::to_string(::getpid()) + ".sock";
  serve::ServeOptions options = base_options(dir, socket_path);
  options.chaos_kill_worker_after = 1;
  options.chaos_hang_after = 2;
  options.chaos_hang_ms = 1500.0;
  options.chaos_exit_after = 2;
  const pid_t daemon = spawn_daemon(options);
  ASSERT_GT(daemon, 0);

  int fd = -1;
  for (int i = 0; i < 200 && fd < 0; ++i) {
    fd = util::io::connect_unix(socket_path);
    if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ASSERT_GE(fd, 0);
  const aging::AgingScenario scenario = flow::serve_chaos_scenario();
  serve::Request req;
  req.id = "orphan-1";
  req.op = "characterize";
  req.cell = "NAND2_X1";
  req.lambda_p = scenario.lambda_p;
  req.lambda_n = scenario.lambda_n;
  req.years = scenario.years;
  req.include_mobility = scenario.include_mobility;
  ASSERT_TRUE(util::io::write_all(fd, serve::to_json(req) + "\n"));

  int status = 0;
  ASSERT_EQ(waitpid(daemon, &status, 0), daemon);
  ::close(fd);
  ::unlink(socket_path.c_str());
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  std::vector<std::string> entries;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.path().extension() == ".task") entries.push_back(e.path().string());
  }
  ASSERT_EQ(entries.size(), 1u);  // the dead daemon never unspooled it
  EXPECT_FALSE(util::held(entries[0]));
}

// ---------------------------------------------------------------------------
// Served ops: prove/guardband run server-side in a forked op runner and must
// reproduce the direct in-process pipelines bitwise; cancellation is client
// disconnect or deadline expiry, both SIGKILL on the runner.

TEST_F(ServeTest, ServedProveMatchesTheDirectPipelineBitwise) {
  const std::string dir = unique_dir("serve_prove");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string socket_path =
      "/tmp/rwservetest_prv_" + std::to_string(::getpid()) + ".sock";
  const pid_t daemon = spawn_daemon(base_options(dir, socket_path));
  ASSERT_GT(daemon, 0);

  serve::ClientOptions copt;
  copt.socket_path = socket_path;
  copt.timeout_ms = 120000;
  serve::Request req;
  req.id = "prove-1";
  req.op = "prove";
  req.years = 10.0;
  req.netlist = kDutVerilog;
  serve::ServeClient client(copt);
  const serve::Response resp = client.request(req);
  ASSERT_EQ(resp.status, "ok") << resp.error;
  ASSERT_FALSE(resp.result.empty());

  // Direct run of the same pipeline, no cache anywhere (a cold-cache op
  // runner keeps its in-memory full-precision tables, so the payloads must
  // agree to the last %.17g digit).
  charlib::LibraryFactory factory(flow::chaos_factory_options());
  const liberty::Library& fresh = factory.library(aging::AgingScenario::fresh());
  const netlist::Module module = netlist::parse_verilog(kDutVerilog, fresh);
  const flow::ProvenGuardbandResult direct = flow::proven_guardband(module, factory, 10.0);
  EXPECT_EQ(resp.result, serve::prove_payload(direct));

  serve::Request bye;
  bye.id = "prove-bye";
  bye.op = "shutdown";
  EXPECT_EQ(client.request(bye).status, "ok");
  int status = 0;
  ASSERT_EQ(waitpid(daemon, &status, 0), daemon);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  ::unlink(socket_path.c_str());
}

TEST_F(ServeTest, ServedGuardbandMatchesTheDirectPipelineBitwise) {
  const std::string dir = unique_dir("serve_gb");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string socket_path =
      "/tmp/rwservetest_gb_" + std::to_string(::getpid()) + ".sock";
  const pid_t daemon = spawn_daemon(base_options(dir, socket_path));
  ASSERT_GT(daemon, 0);

  serve::ClientOptions copt;
  copt.socket_path = socket_path;
  copt.timeout_ms = 120000;
  serve::Request req;
  req.id = "gb-1";
  req.op = "guardband";
  req.lambda_p = 0.5;
  req.lambda_n = 0.5;
  req.years = 10.0;
  req.netlist = kDutVerilog;
  serve::ServeClient client(copt);
  const serve::Response resp = client.request(req);
  ASSERT_EQ(resp.status, "ok") << resp.error;
  ASSERT_FALSE(resp.result.empty());

  charlib::LibraryFactory factory(flow::chaos_factory_options());
  const liberty::Library& fresh = factory.library(aging::AgingScenario::fresh());
  const netlist::Module module = netlist::parse_verilog(kDutVerilog, fresh);
  const sta::GuardbandReport direct =
      flow::static_guardband(module, factory, flow::serve_chaos_scenario());
  EXPECT_EQ(resp.result, serve::guardband_payload(direct));

  serve::Request bye;
  bye.id = "gb-bye";
  bye.op = "shutdown";
  EXPECT_EQ(client.request(bye).status, "ok");
  int status = 0;
  ASSERT_EQ(waitpid(daemon, &status, 0), daemon);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  ::unlink(socket_path.c_str());
}

TEST_F(ServeTest, ClientDisconnectCancelsTheOpRunner) {
  const std::string dir = unique_dir("serve_opcancel");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string socket_path =
      "/tmp/rwservetest_opc_" + std::to_string(::getpid()) + ".sock";
  const pid_t daemon = spawn_daemon(base_options(dir, socket_path));
  ASSERT_GT(daemon, 0);

  serve::ClientOptions copt;
  copt.socket_path = socket_path;
  copt.timeout_ms = 10000;

  // Raw socket: send a prove op, confirm it was admitted, then vanish.
  int fd = -1;
  for (int i = 0; i < 200 && fd < 0; ++i) {
    fd = util::io::connect_unix(socket_path);
    if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ASSERT_GE(fd, 0);
  serve::Request req;
  req.id = "opcancel-1";
  req.op = "prove";
  req.years = 10.0;
  req.netlist = kDutVerilog;
  ASSERT_TRUE(util::io::write_all(fd, serve::to_json(req) + "\n"));
  ASSERT_TRUE(poll_stat_at_least(copt, "ops_admitted", 1.0, 15000));
  ::close(fd);  // the only cancellation protocol there is

  EXPECT_TRUE(poll_stat_at_least(copt, "ops_cancelled", 1.0, 15000));

  serve::Request bye;
  bye.id = "opcancel-bye";
  bye.op = "shutdown";
  serve::ServeClient client(copt);
  EXPECT_EQ(client.request(bye).status, "ok");
  int status = 0;
  ASSERT_EQ(waitpid(daemon, &status, 0), daemon);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  ::unlink(socket_path.c_str());
}

TEST_F(ServeTest, OpDeadlineExpiryKillsTheRunnerAndAnswersAnError) {
  const std::string dir = unique_dir("serve_opdl");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string socket_path =
      "/tmp/rwservetest_dl_" + std::to_string(::getpid()) + ".sock";
  const pid_t daemon = spawn_daemon(base_options(dir, socket_path));
  ASSERT_GT(daemon, 0);

  serve::ClientOptions copt;
  copt.socket_path = socket_path;
  copt.timeout_ms = 60000;
  serve::Request req;
  req.id = "opdl-1";
  req.op = "prove";
  req.years = 10.0;
  req.netlist = kDutVerilog;
  req.deadline_ms = 1.0;  // a real prove takes ~seconds: always expires
  serve::ServeClient client(copt);
  const serve::Response resp = client.request(req);
  EXPECT_EQ(resp.status, "error");
  EXPECT_NE(resp.error.find("deadline"), std::string::npos) << resp.error;

  // The new fleet/op/GC counters ride the same stats surface.
  serve::Request stats_req;
  stats_req.id = "opdl-stats";
  stats_req.op = "stats";
  const serve::Response stats = client.request(stats_req);
  ASSERT_EQ(stats.status, "ok");
  EXPECT_GE(stat_value(stats, "ops_expired"), 1.0);
  for (const char* key : {"tasks_spooled", "tasks_adopted", "tasks_stolen", "ops_admitted",
                          "ops_cancelled", "gc_sweeps", "gc_evicted"}) {
    bool found = false;
    for (const auto& [k, v] : stats.stats) found = found || k == key;
    EXPECT_TRUE(found) << key << " missing from op=stats";
  }

  serve::Request bye;
  bye.id = "opdl-bye";
  bye.op = "shutdown";
  EXPECT_EQ(client.request(bye).status, "ok");
  int status = 0;
  ASSERT_EQ(waitpid(daemon, &status, 0), daemon);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  ::unlink(socket_path.c_str());
}

}  // namespace
}  // namespace rw
