#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "charlib/manifest.hpp"
#include "flow/artifact.hpp"
#include "flow/orchestrator.hpp"
#include "flow/run_report.hpp"
#include "serve/protocol.hpp"
#include "serve/spool.hpp"
#include "util/atomic_file.hpp"
#include "util/interp.hpp"
#include "util/io.hpp"
#include "util/json.hpp"
#include "util/number.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace rw::util {
namespace {

TEST(Axis, RejectsNonIncreasing) {
  EXPECT_THROW(Axis({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Axis({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Axis(std::vector<double>{}), std::invalid_argument);
}

TEST(Axis, BracketClampsToEnds) {
  const Axis axis({0.0, 1.0, 2.0, 5.0});
  EXPECT_EQ(axis.bracket(-10.0), 0u);
  EXPECT_EQ(axis.bracket(0.5), 0u);
  EXPECT_EQ(axis.bracket(1.5), 1u);
  EXPECT_EQ(axis.bracket(4.0), 2u);
  EXPECT_EQ(axis.bracket(100.0), 2u);
}

TEST(Table1D, InterpolatesLinearly) {
  const Table1D t(Axis({0.0, 10.0}), {0.0, 100.0});
  EXPECT_DOUBLE_EQ(t.lookup(2.5), 25.0);
  EXPECT_DOUBLE_EQ(t.lookup(10.0), 100.0);
}

TEST(Table1D, ExtrapolatesBeyondEnds) {
  const Table1D t(Axis({0.0, 10.0}), {0.0, 100.0});
  EXPECT_DOUBLE_EQ(t.lookup(-5.0), -50.0);
  EXPECT_DOUBLE_EQ(t.lookup(20.0), 200.0);
}

TEST(Table2D, BilinearExactAtGridPoints) {
  const Table2D t(Axis({0.0, 1.0}), Axis({0.0, 1.0, 2.0}), {1, 2, 3, 4, 5, 6});
  EXPECT_DOUBLE_EQ(t.lookup(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(t.lookup(0.0, 2.0), 3.0);
  EXPECT_DOUBLE_EQ(t.lookup(1.0, 0.0), 4.0);
  EXPECT_DOUBLE_EQ(t.lookup(1.0, 2.0), 6.0);
}

TEST(Table2D, BilinearMidpoint) {
  const Table2D t(Axis({0.0, 1.0}), Axis({0.0, 1.0}), {0.0, 0.0, 0.0, 4.0});
  EXPECT_DOUBLE_EQ(t.lookup(0.5, 0.5), 1.0);
}

// Property: a bilinear table built from a plane reproduces the plane
// everywhere, including under extrapolation.
TEST(Table2D, PlaneReproductionProperty) {
  const Axis xs({1.0, 2.0, 4.0, 8.0});
  const Axis ys({0.5, 1.0, 3.0});
  std::vector<double> values;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    for (std::size_t j = 0; j < ys.size(); ++j) values.push_back(3.0 * xs[i] - 2.0 * ys[j] + 1.0);
  }
  const Table2D t(xs, ys, values);
  Rng rng(7);
  for (int k = 0; k < 200; ++k) {
    const double x = rng.uniform(-2.0, 12.0);
    const double y = rng.uniform(-1.0, 5.0);
    EXPECT_NEAR(t.lookup(x, y), 3.0 * x - 2.0 * y + 1.0, 1e-9);
  }
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
    const int k = rng.uniform_int(-3, 3);
    EXPECT_GE(k, -3);
    EXPECT_LE(k, 3);
  }
}

TEST(Stats, BasicAggregates) {
  const std::vector<double> xs = {1.0, -2.0, 3.0, 0.0};
  EXPECT_DOUBLE_EQ(mean(xs), 0.5);
  EXPECT_DOUBLE_EQ(min_of(xs), -2.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 3.0);
  EXPECT_DOUBLE_EQ(fraction_negative(xs), 0.25);
}

TEST(Stats, Percentile) {
  std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 2.5);
}

TEST(Stats, HistogramBinsAndOverflow) {
  const std::vector<double> xs = {-1.0, 0.1, 0.9, 1.5, 10.0};
  const Histogram h = make_histogram(xs, 0.0, 2.0, 2);
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.underflow, 1u);
  EXPECT_EQ(h.overflow, 1u);
  EXPECT_EQ(h.total(), xs.size());
}

TEST(Strings, SplitAndTrim) {
  const auto parts = split("  a,b ,, c ", ", ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
  EXPECT_EQ(trim("  x y \n"), "x y");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, IndexedCellNameRoundTrip) {
  const std::string name = indexed_cell_name("AND2_X1", 0.4, 0.6);
  EXPECT_EQ(name, "AND2_X1_0.40_0.60");
  std::string base;
  double lp = 0.0;
  double ln = 0.0;
  ASSERT_TRUE(parse_indexed_cell_name(name, base, lp, ln));
  EXPECT_EQ(base, "AND2_X1");
  EXPECT_DOUBLE_EQ(lp, 0.4);
  EXPECT_DOUBLE_EQ(ln, 0.6);
}

TEST(Strings, ParseIndexedRejectsPlainNames) {
  std::string base;
  double lp = 0.0;
  double ln = 0.0;
  EXPECT_FALSE(parse_indexed_cell_name("NAND2_X1", base, lp, ln));
  EXPECT_FALSE(parse_indexed_cell_name("X", base, lp, ln));
}

TEST(Strings, SplitIndexedKeepsOutOfRangeIndicesThatParseRejects) {
  std::string base = "untouched";
  double lp = 0.0;
  double ln = 0.0;
  EXPECT_FALSE(parse_indexed_cell_name("INV_X1_1.50_-0.20", base, lp, ln));
  ASSERT_TRUE(split_indexed_cell_name("INV_X1_1.50_-0.20", base, lp, ln));
  EXPECT_EQ(base, "INV_X1");
  EXPECT_DOUBLE_EQ(lp, 1.5);
  EXPECT_DOUBLE_EQ(ln, -0.2);
  base = "untouched";
  for (const char* name : {"INV_X1_0.5x_0.5", "INV_X1_ 0.5_0.5", "INV_X1_0.5_inf", "INV_X1__0.5"}) {
    EXPECT_FALSE(split_indexed_cell_name(name, base, lp, ln)) << name;
  }
  EXPECT_EQ(base, "untouched");
}

// ---------------------------------------------------------------------------
// Whole-string number parser

TEST(Number, ParsesWholeFiniteStringsOnly) {
  double d = -7.0;
  EXPECT_TRUE(parse_number("0.25", d));
  EXPECT_EQ(d, 0.25);
  EXPECT_TRUE(parse_number("1e3", d));
  EXPECT_EQ(d, 1000.0);
  EXPECT_TRUE(parse_number("-2.5", d));
  EXPECT_EQ(d, -2.5);
  for (const char* bad : {"", " 1", "1 ", "+1", "0.5x", "12,5", "0x10", "inf", "-inf", "nan",
                          "1e999", "abc", "-"}) {
    d = -7.0;
    EXPECT_FALSE(parse_number(bad, d)) << "'" << bad << "'";
    EXPECT_EQ(d, -7.0) << "'" << bad << "' clobbered the output";
  }

  int i = 0;
  EXPECT_TRUE(parse_number("-12", i));
  EXPECT_EQ(i, -12);
  EXPECT_TRUE(parse_number("2147483647", i));
  for (const char* bad : {"", " 4", "4x", "1e3", "0x10", "1.5", "2147483648", "+4"}) {
    EXPECT_FALSE(parse_number(bad, i)) << "'" << bad << "'";
  }

  std::uint64_t u = 0;
  EXPECT_TRUE(parse_number("18446744073709551615", u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"-1", "18446744073709551616", "abc", ""}) {
    EXPECT_FALSE(parse_number(bad, u)) << "'" << bad << "'";
  }
}

TEST(Number, EnvNumberFallsBackOnUnsetEmptyOrMalformed) {
  constexpr const char* kVar = "RW_UTIL_TEST_NUMBER";
  ASSERT_EQ(unsetenv(kVar), 0);
  EXPECT_EQ(env_number(kVar, 3), 3);
  for (const char* bad : {"", "5x", "banana", " 5"}) {
    ASSERT_EQ(setenv(kVar, bad, 1), 0);
    EXPECT_EQ(env_number(kVar, 3), 3) << "'" << bad << "'";
  }
  ASSERT_EQ(setenv(kVar, "5", 1), 0);
  EXPECT_EQ(env_number(kVar, 3), 5);
  ASSERT_EQ(setenv(kVar, "0.5", 1), 0);
  EXPECT_EQ(env_number(kVar, 1.0), 0.5);
  ASSERT_EQ(unsetenv(kVar), 0);
}

// ---------------------------------------------------------------------------
// JSON reader

namespace fs = std::filesystem;

TEST(Json, ReadsEveryValueKindAndSkipsUnknownKeysOfAnyType) {
  const std::string doc =
      "{ \"s\" : \"a\\\"b\\\\c\\/\\n\\t\\r\\b\\f\\u0001\\u00e9\" ,\n"
      "  \"x\": -1.5e3, \"t\": true, \"f\": false, \"n\": 7,\n"
      "  \"skip\": {\"k\": [1, \"two\", null, {\"deep\": [[]]}], \"e\": {}},\n"
      "  \"also\": \"skipped\", \"num\": -0.25, \"nil\": null, \"a\": [3, 4] }";
  std::string s;
  double x = 0.0;
  bool t = false;
  bool f = true;
  int n = 0;
  std::vector<double> a;
  std::string error;
  ASSERT_TRUE(json::parse_object(doc, error, [&](json::Reader& r, std::string_view key) {
    if (key == "s") return r.string(s);
    if (key == "x") return r.number(x);
    if (key == "t") return r.boolean(t);
    if (key == "f") return r.boolean(f);
    if (key == "n") return r.integer(n);
    if (key == "a") {
      return r.array([&](json::Reader& r) {
        a.push_back(0.0);
        return r.number(a.back());
      });
    }
    return r.skip();
  })) << error;
  EXPECT_EQ(s, std::string("a\"b\\c/\n\t\r\b\f\x01\xc3\xa9"));
  EXPECT_EQ(x, -1500.0);
  EXPECT_TRUE(t);
  EXPECT_FALSE(f);
  EXPECT_EQ(n, 7);
  EXPECT_EQ(a, (std::vector<double>{3.0, 4.0}));

  // Every escape the shared writer emits reads back to the same bytes.
  std::string all;
  for (int c = 1; c < 256; ++c) all.push_back(static_cast<char>(c));
  std::string written = "{\"v\":";
  append_json_string(written, all);
  written += '}';
  std::string back;
  ASSERT_TRUE(json::parse_object(written, error, [&](json::Reader& r, std::string_view) {
    return r.string(back);
  })) << error;
  EXPECT_EQ(back, all);
}

TEST(Json, MalformedDocumentsFailWithAPositionedError) {
  const auto reject = [](const std::string& doc) {
    std::string error;
    const bool ok = json::parse_object(doc, error, [](json::Reader& r, std::string_view) {
      return r.skip();
    });
    return !ok && error.find(" at offset ") != std::string::npos;
  };
  for (const char* doc : {"", "[]", "{", "{\"a\"}", "{\"a\":}", "{\"a\":1,}", "{\"a\":1 \"b\":2}",
                          "{\"a\":\"\\q\"}", "{\"a\":\"\\u12\"}", "{\"a\":\"\\u00g0\"}",
                          "{\"a\":[1,]}", "{\"a\":tru}", "{\"a\":\"open}", "{1:2}",
                          "{\"id\":\"x\",\"op\":\"ping\"}{\"id\":\"y\"} junk"}) {
    EXPECT_TRUE(reject(doc)) << doc;
  }
}

TEST(Json, IntegersAreExactAndFitTheirType) {
  const auto read = [](const std::string& value, auto& out) {
    std::string error;
    return json::parse_object("{\"v\":" + value + "}", error,
                              [&](json::Reader& r, std::string_view) { return r.integer(out); });
  };
  std::size_t bytes = 0;
  EXPECT_TRUE(read("18446744073709551615", bytes));
  EXPECT_EQ(bytes, std::numeric_limits<std::size_t>::max());
  for (const char* bad : {"1e30", "-1", "1.5", "1e3", "18446744073709551616", "+1", "\"1\""}) {
    EXPECT_FALSE(read(bad, bytes)) << bad;
  }
  int index = 0;
  EXPECT_TRUE(read("2147483647", index));
  EXPECT_EQ(index, 2147483647);
  EXPECT_FALSE(read("2147483648", index));
}

TEST(Json, NestingIsBoundedSoDeepDocumentsAreRejectedNotRecursedInto) {
  const auto skip_all = [](const std::string& doc, std::string& error) {
    return json::parse_object(doc, error, [](json::Reader& r, std::string_view) {
      return r.skip();
    });
  };
  const auto nested = [](int depth) {
    return "{\"junk\":" + std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']') + "}";
  };
  std::string error;
  // The object itself is one level.
  EXPECT_TRUE(skip_all(nested(json::kMaxDepth - 1), error)) << error;
  EXPECT_FALSE(skip_all(nested(json::kMaxDepth), error));
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(skip_all("{\"junk\":" + std::string(100000, '[') + "}", error));
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;
}

TEST(Json, FormatDoubleRoundTripsBitwiseIncludingNonFinite) {
  const double values[] = {0.0, -0.0, 1.0 / 3.0, 1e-310, 1.7976931348623157e308, -2.5,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  for (const double v : values) {
    double back = 0.0;
    std::string error;
    ASSERT_TRUE(json::parse_object("{\"v\":" + json::format_double(v) + "}", error,
                                   [&](json::Reader& r, std::string_view) {
                                     return r.number(back);
                                   }))
        << json::format_double(v) << ": " << error;
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0) << json::format_double(v);
  }
  double back = 0.0;
  std::string error;
  ASSERT_TRUE(json::parse_object(
      "{\"v\":" + json::format_double(std::numeric_limits<double>::quiet_NaN()) + "}", error,
      [&](json::Reader& r, std::string_view) { return r.number(back); }));
  EXPECT_TRUE(std::isnan(back));
}

/// Every strict prefix of `doc` and `flips` seeded single-byte corruptions.
std::vector<std::string> mutations(const std::string& doc, std::uint64_t seed, int flips) {
  std::vector<std::string> out;
  for (std::size_t n = 0; n < doc.size(); ++n) out.push_back(doc.substr(0, n));
  Rng rng(seed);
  for (int k = 0; k < flips; ++k) {
    std::string m = doc;
    m[rng.next_below(m.size())] = static_cast<char>(rng.next_below(256));
    out.push_back(std::move(m));
  }
  return out;
}

// Truncation and corruption sweep over one document of every kind the
// toolchain reads back, through the reader that reads it in production.
// Each input must be parsed or rejected cleanly, never crash (run under
// AddressSanitizer by scripts/check.sh), and no torn document — a prefix
// that ends before the closing brace — may parse.
TEST(Json, EveryReaderSurvivesTruncationAndByteFlips) {
  const std::string dir = (fs::temp_directory_path() /
                           ("rw_json_sweep_" + std::to_string(::getpid())))
                              .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string file = dir + "/doc.json";
  const auto put = [&](const std::string& text) { std::ofstream(file, std::ios::binary) << text; };
  std::string error;

  using ReadFn = std::function<bool(const std::string&)>;
  std::vector<std::pair<std::string, ReadFn>> kinds;

  charlib::RunManifest manifest(dir + "/manifest.json");
  manifest.record_done("wc10y", "NAND2_X1", 2);
  manifest.record_failed("wc10y", "XOR2_X1", "characterize XOR2_X1: \"diverged\"\n");
  manifest.save();
  std::string manifest_doc;
  ASSERT_TRUE(read_file(dir + "/manifest.json", manifest_doc));
  kinds.emplace_back(manifest_doc, [&](const std::string& text) {
    put(text);
    return charlib::RunManifest::load(file).size() == 2;
  });

  {
    flow::OrchestratorOptions opts;
    opts.dir = dir + "/flow";
    flow::FlowOrchestrator run("sweep_flow", opts);
    (void)run.stage("a", [] { return std::vector<double>{1.0}; },
                    flow::artifact::encode_doubles, flow::artifact::decode_doubles);
  }
  std::string flow_doc;
  ASSERT_TRUE(read_file(dir + "/flow/flow_manifest.json", flow_doc));
  kinds.emplace_back(flow_doc, [&](const std::string& text) {
    put(text);
    for (const auto& d : flow::lint_flow_manifest(file)) {
      if (d.message.find("malformed") != std::string::npos) return false;
    }
    return true;
  });

  serve::Request req;
  req.id = "req-1";
  req.op = "merged";
  req.cell = "NAND2_X1";
  req.lambda_p = 0.25;
  req.netlist = "module m(a);\n  input a;\nendmodule\n";
  req.guardband_ps = 12.5;
  req.corners = {{0.0, 1.0}, {0.5, 0.25}};
  kinds.emplace_back(serve::to_json(req), [&](const std::string& text) {
    serve::Request out;
    return serve::parse_request(text, out, error);
  });

  serve::Response resp;
  resp.id = "req-1";
  resp.status = "ok";
  resp.library = "library (x) {\n}\n";
  resp.retry_after_ms = 5.0;
  resp.stats = {{"tasks_done", 3.0}, {"queue_depth", 0.0}};
  kinds.emplace_back(serve::to_json(resp), [&](const std::string& text) {
    serve::Response out;
    return serve::parse_response(text, out, error);
  });

  serve::WorkerTask task;
  task.task = "3x3/L0.50_0.50_y10/NAND2_X1";
  task.cell = "NAND2_X1";
  task.years = 10.0;
  task.hang_ms = 50.0;
  task.exit_now = true;
  kinds.emplace_back(serve::to_json(task), [&](const std::string& text) {
    serve::WorkerTask out;
    return serve::parse_worker_task(text, out, error);
  });

  serve::WorkerReply reply;
  reply.task = task.task;
  reply.status = "failed";
  reply.error = "solver exhausted the retry ladder";
  reply.permanent = true;
  reply.payload = "{\"x\":1}";
  kinds.emplace_back(serve::to_json(reply), [&](const std::string& text) {
    serve::WorkerReply out;
    return serve::parse_worker_reply(text, out, error);
  });

  const std::string spool_file = dir + "/spool.task";
  std::string spool_doc;
  {
    auto lease = serve::publish_spool_record(spool_file, task, 1234.0);
    ASSERT_TRUE(lease.has_value());
    ASSERT_TRUE(read_file(spool_file, spool_doc));
  }
  kinds.emplace_back(spool_doc, [&](const std::string& text) {
    put(text);
    serve::SpoolRecord rec;
    return serve::read_spool_record(file, rec);
  });

  flow::RunReport report;
  report.flow = "sweep_flow";
  report.status = "failed";
  report.stages.push_back(flow::StageReport{"a", "failed", 1.5, "", 0, "boom"});
  kinds.emplace_back(report.to_json(), [&](const std::string& text) {
    return json::parse_object(text, error, [](json::Reader& r, std::string_view) {
      return r.skip();
    });
  });

  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const auto& [doc, read] = kinds[k];
    ASSERT_TRUE(read(doc)) << "kind " << k << " must read its own writer's output:\n" << doc;
    const std::size_t closing = doc.rfind('}');
    const std::vector<std::string> inputs = mutations(doc, 1000 + k, 512);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const bool parsed = read(inputs[i]);
      if (i < closing) {
        EXPECT_FALSE(parsed) << "kind " << k << " torn at " << i;
      }
    }
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// LineReader

class LineReaderTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0); }
  void TearDown() override {
    ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  void send(const std::string& bytes) { ASSERT_TRUE(io::write_all(fds_[1], bytes)); }
  void close_writer() {
    ::close(fds_[1]);
    fds_[1] = -1;
  }

  int fds_[2] = {-1, -1};
};

TEST_F(LineReaderTest, ALineSplitAcrossReadsIsJoined) {
  io::LineReader reader(fds_[0]);
  std::string line;
  send("{\"id\":");
  EXPECT_EQ(reader.read_line(line, 0), io::LineReader::Status::kTimeout);
  send("\"x\"}");
  EXPECT_EQ(reader.read_line(line, 0), io::LineReader::Status::kTimeout);
  send("\nnext");
  ASSERT_EQ(reader.read_line(line, 0), io::LineReader::Status::kLine);
  EXPECT_EQ(line, "{\"id\":\"x\"}");
}

TEST_F(LineReaderTest, SeveralLinesInOneReadComeOutInOrder) {
  io::LineReader reader(fds_[0]);
  send("a\n\nbb\nccc\n");
  std::string line;
  for (const char* want : {"a", "", "bb", "ccc"}) {
    ASSERT_EQ(reader.read_line(line, 1000), io::LineReader::Status::kLine);
    EXPECT_EQ(line, want);
  }
  EXPECT_EQ(reader.read_line(line, 0), io::LineReader::Status::kTimeout);
}

TEST_F(LineReaderTest, APartialLineAtEofIsReportedAsEof) {
  io::LineReader reader(fds_[0]);
  send("whole\ntorn");
  close_writer();
  std::string line;
  ASSERT_EQ(reader.read_line(line), io::LineReader::Status::kLine);
  EXPECT_EQ(line, "whole");
  EXPECT_EQ(reader.read_line(line), io::LineReader::Status::kEof);
}

TEST_F(LineReaderTest, TheTimeoutZeroDrainKeepsAPartialLineForTheNextCall) {
  io::LineReader reader(fds_[0]);
  send("one\ntw");
  std::string line;
  ASSERT_EQ(reader.read_line(line, 0), io::LineReader::Status::kLine);
  EXPECT_EQ(line, "one");
  EXPECT_EQ(reader.read_line(line, 0), io::LineReader::Status::kTimeout);
  EXPECT_EQ(reader.read_line(line, 0), io::LineReader::Status::kTimeout);
  send("o\nthree\n");
  ASSERT_EQ(reader.read_line(line, 0), io::LineReader::Status::kLine);
  EXPECT_EQ(line, "two");
  ASSERT_EQ(reader.read_line(line, 0), io::LineReader::Status::kLine);
  EXPECT_EQ(line, "three");
}

TEST_F(LineReaderTest, ALongLineIsReadWhole) {
  // Longer than the socket buffer, so a child process writes it while the
  // reader assembles it from many partial reads.
  const std::string big(4 << 20, 'x');
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(fds_[0]);
    const bool ok = io::write_all(fds_[1], big + "\nend\n");
    ::_exit(ok ? 0 : 1);
  }
  close_writer();
  io::LineReader reader(fds_[0]);
  std::string line;
  ASSERT_EQ(reader.read_line(line, 10000), io::LineReader::Status::kLine);
  EXPECT_EQ(line, big);
  ASSERT_EQ(reader.read_line(line, 10000), io::LineReader::Status::kLine);
  EXPECT_EQ(line, "end");
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

}  // namespace
}  // namespace rw::util
