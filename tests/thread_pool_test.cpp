#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

namespace rw::util {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnceIntoItsSlot) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<int> out(n, -1);
  std::vector<std::atomic<int>> calls(n);
  pool.parallel_for(n, [&](std::size_t i) {
    out[i] = static_cast<int>(3 * i + 1);
    calls[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], static_cast<int>(3 * i + 1)) << i;
    EXPECT_EQ(calls[i].load(), 1) << i;
  }
}

TEST(ThreadPool, ResultsMatchSerialExecution) {
  const std::size_t n = 257;
  std::vector<double> serial(n);
  for (std::size_t i = 0; i < n; ++i) serial[i] = static_cast<double>(i) * 1.5 - 3.0;

  ThreadPool pool(8);
  std::vector<double> parallel(n);
  pool.parallel_for(n, [&](std::size_t i) { parallel[i] = static_cast<double>(i) * 1.5 - 3.0; });
  EXPECT_EQ(parallel, serial);  // bitwise: slots, not accumulation order
}

TEST(ThreadPool, ZeroAndSingleElementLoops) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, PropagatesLowestIndexException) {
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    try {
      pool.parallel_for(100, [&](std::size_t i) {
        if (i == 37 || i == 90) throw std::runtime_error("boom at " + std::to_string(i));
      });
      FAIL() << "exception not propagated";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 37");
    }
    // The pool stays usable after a failed batch.
    std::vector<int> out(8, 0);
    pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = 1; });
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 8);
  }
}

TEST(ThreadPool, NestedLoopsRunInline) {
  ThreadPool pool(4);
  const std::size_t outer = 8;
  const std::size_t inner = 16;
  std::vector<std::vector<int>> out(outer, std::vector<int>(inner, 0));
  pool.parallel_for(outer, [&](std::size_t i) {
    // Nested call from a (possibly) worker thread must not deadlock and must
    // still hit every index.
    pool.parallel_for(inner, [&](std::size_t j) { out[i][j] = static_cast<int>(i * inner + j); });
  });
  for (std::size_t i = 0; i < outer; ++i) {
    for (std::size_t j = 0; j < inner; ++j) {
      EXPECT_EQ(out[i][j], static_cast<int>(i * inner + j));
    }
  }
}

TEST(ThreadPool, NestedLoopsPropagateLowestIndexException) {
  ThreadPool pool(4);
  const std::size_t outer = 8;
  const std::size_t inner = 32;
  for (int round = 0; round < 3; ++round) {
    // Inner loops run inline on worker threads; an exception thrown inside a
    // nested parallel_for must surface from the inner call as its own
    // lowest-index failure, and the outer loop must then report the lowest
    // *outer* index whose inner loop failed.
    try {
      pool.parallel_for(outer, [&](std::size_t i) {
        pool.parallel_for(inner, [&](std::size_t j) {
          if (i >= 3 && (j == 7 || j == 20)) {
            throw std::runtime_error("inner boom at " + std::to_string(i) + ":" +
                                     std::to_string(j));
          }
        });
      });
      FAIL() << "exception not propagated through nested pools";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "inner boom at 3:7");
    }
    // Both nesting levels stay usable afterwards.
    std::vector<std::vector<int>> out(outer, std::vector<int>(inner, 0));
    pool.parallel_for(outer, [&](std::size_t i) {
      pool.parallel_for(inner, [&](std::size_t j) { out[i][j] = 1; });
    });
    int total = 0;
    for (const auto& row : out) total += std::accumulate(row.begin(), row.end(), 0);
    EXPECT_EQ(total, static_cast<int>(outer * inner));
  }
}

TEST(ThreadPool, NestedExceptionAcrossDistinctPools) {
  // An outer loop on one pool, inner loops on another (the shared-pool
  // pattern the characterizer uses): the inner pool's lowest-index guarantee
  // must hold even when its caller is a foreign worker thread.
  ThreadPool outer_pool(4);
  ThreadPool inner_pool(4);
  try {
    outer_pool.parallel_for(4, [&](std::size_t i) {
      inner_pool.parallel_for(64, [&](std::size_t j) {
        if (i == 1 && j >= 10) throw std::out_of_range("nested " + std::to_string(j));
      });
    });
    FAIL() << "exception not propagated";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "nested 10");
  }
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> out(64, 0);
  pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 64);
}

TEST(ThreadPool, ConcurrentCallersShareThePool) {
  ThreadPool outer(4);
  ThreadPool shared_target(4);
  std::vector<std::vector<int>> out(6, std::vector<int>(100, 0));
  // Several threads issuing parallel_for on the same pool concurrently.
  outer.parallel_for(out.size(), [&](std::size_t k) {
    shared_target.parallel_for(out[k].size(), [&](std::size_t i) { out[k][i] = 1; });
  });
  for (const auto& row : out) {
    EXPECT_EQ(std::accumulate(row.begin(), row.end(), 0), 100);
  }
}

TEST(ThreadPool, DefaultThreadCountHonorsEnv) {
  ASSERT_EQ(unsetenv("RW_THREADS"), 0);
  const std::size_t hardware = default_thread_count();
  EXPECT_GE(hardware, 1u);
  ASSERT_EQ(setenv("RW_THREADS", "3", 1), 0);
  EXPECT_EQ(default_thread_count(), 3u);
  for (const char* bad : {"not-a-number", "3x", "0", "-2", " 3"}) {
    ASSERT_EQ(setenv("RW_THREADS", bad, 1), 0);
    EXPECT_EQ(default_thread_count(), hardware) << "'" << bad << "'";
  }
  ASSERT_EQ(unsetenv("RW_THREADS"), 0);
}

TEST(ThreadPool, ConsumeThreadFlagRemovesFlagAndKeepsPositionals) {
  const char* raw[] = {"prog", "pos1", "--threads", "2", "pos2", nullptr};
  std::vector<char*> argv;
  for (const char* a : raw) argv.push_back(const_cast<char*>(a));
  int argc = 5;
  EXPECT_EQ(consume_thread_flag(argc, argv.data()), 2u);
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "pos1");
  EXPECT_STREQ(argv[2], "pos2");

  const char* raw_eq[] = {"prog", "--threads=5", "pos", nullptr};
  std::vector<char*> argv_eq;
  for (const char* a : raw_eq) argv_eq.push_back(const_cast<char*>(a));
  int argc_eq = 3;
  EXPECT_EQ(consume_thread_flag(argc_eq, argv_eq.data()), 5u);
  ASSERT_EQ(argc_eq, 2);
  EXPECT_STREQ(argv_eq[1], "pos");

  set_shared_thread_count(0);  // restore the default for other tests
}

}  // namespace
}  // namespace rw::util
