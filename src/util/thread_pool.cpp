#include "util/thread_pool.hpp"

#include "flow/cancel.hpp"
#include "util/number.hpp"

#include <atomic>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>

namespace rw::util {

namespace {

/// Set while this thread is executing batch indices; nested parallel_for
/// calls detect it and run inline instead of re-entering the queue (which
/// could deadlock a fully-busy pool).
thread_local bool t_in_worker = false;

}  // namespace

std::size_t default_thread_count() {
  if (const std::size_t n = env_number<std::size_t>("RW_THREADS", 0); n > 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// One parallel_for invocation: indices are claimed atomically, results go
/// into caller-owned slots, and the lowest-index exception wins so failure
/// behavior matches a serial loop.
struct ThreadPool::Batch {
  std::size_t n = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::size_t active = 0;  ///< threads currently inside run_indices (guarded by mutex)
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;
  std::mutex mutex;
  std::condition_variable done_cv;
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  workers_.reserve(threads > 0 ? threads - 1 : 0);
  for (std::size_t i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      batch = queue_.front();
      queue_.pop_front();
    }
    t_in_worker = true;
    run_indices(*batch);
    t_in_worker = false;
  }
}

void ThreadPool::run_indices(Batch& batch) {
  {
    std::lock_guard<std::mutex> lock(batch.mutex);
    ++batch.active;
  }
  for (;;) {
    const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.n) break;
    try {
      flow::throw_if_cancelled();
      (*batch.body)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(batch.mutex);
      if (i < batch.error_index) {
        batch.error_index = i;
        batch.error = std::current_exception();
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(batch.mutex);
    --batch.active;
  }
  batch.done_cv.notify_all();
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  // Serial paths: trivial loops, a 1-wide pool, or a nested call from a
  // worker thread. Semantics (slot writes, lowest-index exception) are
  // identical by construction.
  if (n == 1 || workers_.empty() || t_in_worker) {
    std::size_t error_index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        flow::throw_if_cancelled();
        body(i);
      } catch (...) {
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->body = &body;
  // One queue entry per worker that could usefully help; each entry drains
  // indices until the batch is exhausted.
  const std::size_t helpers = std::min(workers_.size(), n - 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < helpers; ++i) queue_.push_back(batch);
  }
  if (helpers == 1) {
    work_cv_.notify_one();
  } else {
    work_cv_.notify_all();
  }

  run_indices(*batch);

  std::unique_lock<std::mutex> lock(batch->mutex);
  batch->done_cv.wait(lock, [&] {
    return batch->active == 0 && batch->next.load(std::memory_order_relaxed) >= batch->n;
  });
  // Workers that dequeued the batch but never claimed an index may still
  // touch batch fields; `active` accounting above covers them because they
  // increment before claiming. The shared_ptr keeps the Batch alive for any
  // worker still between dequeue and its first claim.
  if (batch->error) std::rethrow_exception(batch->error);
}

namespace {

std::mutex g_shared_mutex;
std::unique_ptr<ThreadPool>& shared_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}
std::size_t g_shared_threads = 0;  // 0 = default_thread_count() at creation

}  // namespace

ThreadPool& ThreadPool::shared() {
  std::lock_guard<std::mutex> lock(g_shared_mutex);
  auto& pool = shared_slot();
  if (!pool) pool = std::make_unique<ThreadPool>(g_shared_threads);
  return *pool;
}

void set_shared_thread_count(std::size_t n) {
  std::lock_guard<std::mutex> lock(g_shared_mutex);
  g_shared_threads = n;
  auto& pool = shared_slot();
  const std::size_t want = n == 0 ? default_thread_count() : n;
  if (pool && pool->size() != want) pool.reset();
  // Recreated lazily by the next shared() call.
}

std::size_t consume_thread_flag(int& argc, char** argv) {
  std::size_t requested = 0;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, "--threads") == 0) {
      if (i + 1 == argc) usage_exit(argv[0], "--threads needs a value");
      value = argv[++i];
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      value = arg + 10;
    }
    if (value == nullptr) {
      argv[out++] = argv[i];
    } else if (!parse_number(value, requested) || requested == 0) {
      usage_exit(argv[0], "--threads wants a positive count");
    }
  }
  argv[out] = nullptr;
  argc = out;
  if (requested > 0) set_shared_thread_count(requested);
  return requested;
}

}  // namespace rw::util
