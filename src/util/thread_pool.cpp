#include "src/util/thread_pool.hpp"

#include <exception>
#include <string>

#include "src/util/logging.hpp"

namespace dovado::util {

namespace {

/// The pool whose worker_loop is running on this thread (null on any thread
/// that is not a pool worker). Lets parallel_for detect reentrant dispatch.
thread_local const ThreadPool* t_current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

bool ThreadPool::inside_pool_task() const noexcept { return t_current_pool == this; }

void ThreadPool::worker_loop() {
  t_current_pool = this;
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_.wait(mutex_);
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Inline paths: no workers, a single iteration, or a *reentrant* call from
  // inside one of this pool's own tasks. In the reentrant case the submitted
  // helper tasks would queue behind the enqueuing task (which is occupying a
  // worker while it waits for them) and, once stale helpers finally run, the
  // pool would be oversubscribed — so the calling worker runs the loop
  // itself. Exceptions still follow the first-thrown/suppressed-count rule.
  const bool reentrant = inside_pool_task();
  if (reentrant) reentrant_inline_.fetch_add(1, std::memory_order_relaxed);
  if (workers_.empty() || n == 1 || reentrant) {
    std::exception_ptr first_error;
    std::size_t suppressed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!first_error) {
          first_error = std::current_exception();
        } else {
          ++suppressed;
        }
      }
    }
    if (suppressed > 0) {
      suppressed_exceptions_.fetch_add(suppressed, std::memory_order_relaxed);
      Log::warn("parallel_for: " + std::to_string(suppressed) +
                " additional iteration exception(s) suppressed after the first");
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::size_t suppressed = 0;
  Mutex error_mutex("ThreadPool.parallel_for.error");
  auto body = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(error_mutex);
        if (!first_error) {
          first_error = std::current_exception();
        } else {
          // Not silently discarded: counted and logged below, so callers
          // can tell a one-point failure from a batch-wide one.
          ++suppressed;
        }
      }
    }
  };
  std::vector<std::future<void>> futures;
  futures.reserve(workers_.size());
  for (std::size_t w = 0; w < workers_.size(); ++w) futures.push_back(submit(body));
  body();  // the caller participates too
  for (auto& f : futures) f.get();
  if (suppressed > 0) {
    suppressed_exceptions_.fetch_add(suppressed, std::memory_order_relaxed);
    Log::warn("parallel_for: " + std::to_string(suppressed) +
              " additional iteration exception(s) suppressed after the first");
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::size_t default_worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 1;
}

}  // namespace dovado::util
