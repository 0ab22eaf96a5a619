// Fixed-size worker pool with a parallel_for helper.
//
// NSGA-II fitness evaluation is embarrassingly parallel across the offspring
// population; the DSE engine runs SimVivado calls through this pool exactly
// as Dovado would fan out Vivado subprocesses. The pool degrades gracefully
// to inline execution when constructed with zero workers (useful on single-
// core CI machines and for deterministic debugging).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "src/util/sync.hpp"

namespace dovado::util {

class ThreadPool {
 public:
  /// Create `workers` threads. `workers == 0` means every submitted task runs
  /// inline in the caller (no threads are spawned).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 => inline mode).
  [[nodiscard]] std::size_t worker_count() const noexcept { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers (i.e. the
  /// call site is inside a task submitted to this pool).
  [[nodiscard]] bool inside_pool_task() const noexcept;

  /// Submit a task; the returned future carries its result or exception.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    if (workers_.empty()) {
      (*task)();
      return fut;
    }
    {
      MutexLock lock(mutex_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) for i in [0, n), blocking until all iterations finish.
  /// Iterations are distributed one-at-a-time (tool calls dominate cost, so
  /// chunking would only hurt load balance). The caller participates as an
  /// extra lane, so up to worker_count() + 1 iterations run concurrently.
  ///
  /// Reentrancy: calling this from *inside* a pool task would queue the
  /// helper tasks behind the very task that is waiting on them and
  /// oversubscribe the pool once they finally run, so a reentrant call is
  /// detected and degrades to inline execution in the calling worker
  /// (counted in reentrant_inline_calls()).
  ///
  /// Exceptions from iterations are rethrown (the first one encountered);
  /// later exceptions in the same dispatch are counted in
  /// suppressed_exceptions() and logged, so a multi-point failure is not
  /// silently collapsed into a single-point one.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// parallel_for calls that were detected as reentrant (issued from inside
  /// a pool task) and ran inline instead of fanning out.
  [[nodiscard]] std::size_t reentrant_inline_calls() const noexcept {
    return reentrant_inline_.load(std::memory_order_relaxed);
  }

  /// Iteration exceptions swallowed after the first rethrown one, summed
  /// over all parallel_for dispatches.
  [[nodiscard]] std::size_t suppressed_exceptions() const noexcept {
    return suppressed_exceptions_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_{"ThreadPool"};
  CondVar cv_;
  std::queue<std::function<void()>> queue_ DOVADO_GUARDED_BY(mutex_);
  bool stopping_ DOVADO_GUARDED_BY(mutex_) = false;
  std::atomic<std::size_t> reentrant_inline_{0};
  std::atomic<std::size_t> suppressed_exceptions_{0};
};

/// A sensible default worker count: hardware concurrency minus one (leave a
/// core for the orchestrator), never less than one. A single-core host gets
/// one worker thread rather than zero so that callers sizing resources off
/// this value (e.g. one tool session per worker) always get at least one;
/// inline execution remains available by constructing ThreadPool(0)
/// explicitly.
[[nodiscard]] std::size_t default_worker_count();

}  // namespace dovado::util
