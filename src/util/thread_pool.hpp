#pragma once

/// \file thread_pool.hpp
/// A fixed-size thread pool with a deterministic `parallel_for` — the
/// parallel-execution layer behind cell characterization. Design rules:
///
///  * Workers never append to shared containers; callers pre-size result
///    slots and each index writes only its own slot, so a 1-thread and an
///    N-thread run produce bitwise-identical results.
///  * `parallel_for` called from inside a pool worker runs the nested loop
///    inline on that worker (no deadlock, no oversubscription).
///  * Exceptions thrown by loop bodies are captured and the one from the
///    lowest index is rethrown on the calling thread after the loop drains,
///    so error reporting is also independent of the thread count.
///
/// The process-wide pool (`ThreadPool::shared()`) is sized from `RW_THREADS`
/// when set, else `std::thread::hardware_concurrency()`; benches and
/// examples override it via a `--threads N` flag (see `consume_thread_flag`).

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace rw::util {

/// Thread count from $RW_THREADS (when a positive integer), else
/// `hardware_concurrency()`, never less than 1. Read on every call so tests
/// and tools can adjust the environment before pools are built.
std::size_t default_thread_count();

class ThreadPool {
 public:
  /// `threads == 0` means `default_thread_count()`. A pool of size 1 spawns
  /// no workers at all; every `parallel_for` then runs inline.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width including the calling thread.
  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  /// Invokes `body(i)` exactly once for every i in [0, n). The calling
  /// thread participates; returns only after all indices completed. Safe to
  /// call concurrently from several threads and from inside loop bodies
  /// (nested calls run inline).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// The process-wide pool, created on first use with
  /// `default_thread_count()` threads (or the last `set_shared_thread_count`
  /// value).
  static ThreadPool& shared();

 private:
  struct Batch;

  void worker_loop();
  static void run_indices(Batch& batch);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Batch>> queue_;
  bool stop_ = false;
};

/// Resizes the pool returned by `ThreadPool::shared()`. `n == 0` restores
/// `default_thread_count()`. Must not race with in-flight `parallel_for`
/// calls on the shared pool — call it at program start (the `--threads`
/// flag) before characterization work begins.
void set_shared_thread_count(std::size_t n);

/// Scans argv for `--threads N` (or `--threads=N`), applies it via
/// `set_shared_thread_count`, and removes the flag from argv/argc so
/// positional argument parsing is unaffected. Returns the requested count
/// (0 when the flag is absent). N must be a positive whole number
/// (`parse_number`); anything else is a usage error (`usage_exit`).
std::size_t consume_thread_flag(int& argc, char** argv);

/// sysexits.h EX_USAGE: the exit code of every malformed command line.
inline constexpr int kExitUsage = 64;

/// Prints "<program's basename>: <message>" to stderr and exits with
/// `kExitUsage`.
[[noreturn]] void usage_exit(const char* program, const std::string& message);

}  // namespace rw::util
