#include "src/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace dovado::util {
namespace {

TEST(ThreadPool, InlineModeRunsOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  const auto tid = std::this_thread::get_id();
  auto fut = pool.submit([tid] { return std::this_thread::get_id() == tid; });
  EXPECT_TRUE(fut.get());
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(1);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIterations) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForInlinePool) {
  ThreadPool pool(0);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ParallelForRethrowsFirstError) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(50,
                        [&](std::size_t i) {
                          if (i == 13) throw std::logic_error("unlucky");
                        }),
      std::logic_error);
}

TEST(ThreadPool, ReentrantParallelForRunsInlineInWorker) {
  ThreadPool pool(2);
  std::atomic<int> hits{0};
  auto fut = pool.submit([&] {
    EXPECT_TRUE(pool.inside_pool_task());
    // From inside a pool task, fanning out would queue behind this very task;
    // the call must degrade to inline execution and still cover every index.
    pool.parallel_for(10, [&](std::size_t) { hits.fetch_add(1); });
  });
  fut.get();
  EXPECT_EQ(hits.load(), 10);
  EXPECT_EQ(pool.reentrant_inline_calls(), 1u);
  EXPECT_FALSE(pool.inside_pool_task());
}

TEST(ThreadPool, NestedPoolsAreNotReentrant) {
  ThreadPool outer(1);
  ThreadPool inner(1);
  auto fut = outer.submit([&] {
    EXPECT_TRUE(outer.inside_pool_task());
    EXPECT_FALSE(inner.inside_pool_task());
    std::atomic<int> hits{0};
    inner.parallel_for(4, [&](std::size_t) { hits.fetch_add(1); });
    return hits.load();
  });
  EXPECT_EQ(fut.get(), 4);
  EXPECT_EQ(inner.reentrant_inline_calls(), 0u);
}

TEST(ThreadPool, SuppressedExceptionsCountedInline) {
  ThreadPool pool(0);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 2 || i == 5 || i == 7) {
                                     throw std::runtime_error("x");
                                   }
                                 }),
               std::runtime_error);
  EXPECT_EQ(pool.suppressed_exceptions(), 2u);
}

TEST(ThreadPool, SuppressedExceptionsCountedThreaded) {
  ThreadPool pool(3);
  // Every iteration throws; exactly one is rethrown, the rest are counted.
  EXPECT_THROW(pool.parallel_for(20, [](std::size_t) { throw std::logic_error("boom"); }),
               std::logic_error);
  EXPECT_EQ(pool.suppressed_exceptions(), 19u);
}

TEST(ThreadPool, ManyTasksComplete) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  std::vector<std::future<void>> futures;
  futures.reserve(200);
  for (int i = 1; i <= 200; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 200 * 201 / 2);
}

TEST(DefaultWorkerCount, AtLeastOneWorker) {
  // Callers size per-worker resources (tool sessions) off this value, so a
  // single-core host must still get one worker; inline execution stays an
  // explicit ThreadPool(0) choice. Upper bound is a sanity check.
  EXPECT_GE(default_worker_count(), 1u);
  EXPECT_LT(default_worker_count(), 1024u);
}

}  // namespace
}  // namespace dovado::util
