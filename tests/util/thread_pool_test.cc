#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace vq {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, DefaultsToHardwareThreads) {
  ThreadPool pool;
  EXPECT_GE(pool.NumThreads(), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  ParallelFor(&pool, kCount, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  ParallelFor(&pool, 0, [](size_t) { FAIL() << "body must not run"; });
}

TEST(ThreadPoolTest, ParallelForSmallerThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  ParallelFor(&pool, 3, [&counter](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, ParallelForDoesNotWaitForUnrelatedTasks) {
  // A long task already running on the pool (a serving scan on ScanPool(),
  // say) must not hold up a ParallelFor that only needs the other worker.
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<void> blocker_started;
  pool.Submit([released, &blocker_started] {
    blocker_started.set_value();
    released.wait();
  });
  blocker_started.get_future().wait();

  std::atomic<int> counter{0};
  std::future<void> parallel = std::async(std::launch::async, [&pool, &counter] {
    ParallelFor(&pool, 100, [&counter](size_t) { counter.fetch_add(1); });
  });
  bool returned = parallel.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.set_value();  // unblock the pool either way, so teardown cannot hang
  parallel.wait();
  EXPECT_TRUE(returned) << "ParallelFor waited for an unrelated task";
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCallerTakesTheFrontOfItsOrder) {
  // With the only worker busy, no task gets to run: the caller runs every
  // index itself, in the order it was given.
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<void> blocker_started;
  pool.Submit([released, &blocker_started] {
    blocker_started.set_value();
    released.wait();
  });
  blocker_started.get_future().wait();
  std::vector<size_t> ran;
  ParallelFor(&pool, 4, [&ran](size_t i) { ran.push_back(i); }, {3, 0, 2, 1});
  release.set_value();
  pool.Wait();
  EXPECT_EQ(ran, (std::vector<size_t>{3, 0, 2, 1}));
}

TEST(ThreadPoolTest, ParallelForNestedOnItsOwnPoolFinishes) {
  // Every worker runs a ParallelFor over the same pool, so no worker is
  // free for the tasks those calls submit: each caller must do its whole
  // range and return without waiting for tasks that never started.
  // Leaked on a timeout: destroying it would join the stuck workers.
  auto* pool = new ThreadPool(2);
  auto counter = std::make_shared<std::atomic<int>>(0);
  std::vector<std::future<void>> outer;
  for (int t = 0; t < 2; ++t) {
    outer.push_back(pool->SubmitTask([pool, counter] {
      ParallelFor(pool, 50, [&counter](size_t) { counter->fetch_add(1); });
    }));
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (std::future<void>& f : outer) {
    ASSERT_EQ(f.wait_until(deadline), std::future_status::ready)
        << "nested ParallelFor deadlocked its pool";
  }
  EXPECT_EQ(counter->load(), 100);
  delete pool;
}

TEST(ThreadPoolTest, SubmitTaskReturnsResultThroughFuture) {
  ThreadPool pool(2);
  std::future<int> sum = pool.SubmitTask([] { return 19 + 23; });
  EXPECT_EQ(sum.get(), 42);
  std::future<std::string> text =
      pool.SubmitTask([] { return std::string("speech"); });
  EXPECT_EQ(text.get(), "speech");
}

TEST(ThreadPoolTest, SubmitTaskPropagatesExceptions) {
  ThreadPool pool(1);
  std::future<int> result =
      pool.SubmitTask([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(result.get(), std::runtime_error);
  // The worker must survive the throwing task.
  EXPECT_EQ(pool.SubmitTask([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, PendingTasksDrainsToZero) {
  ThreadPool pool(2);
  for (int i = 0; i < 16; ++i) {
    pool.Submit([] {});
  }
  pool.Wait();
  EXPECT_EQ(pool.PendingTasks(), 0u);
}

// Stress: many producers hammer a small pool with a mix of plain and
// future-returning tasks while another thread polls Wait().
TEST(ThreadPoolTest, StressManyProducersAndMixedSubmission) {
  ThreadPool pool(4);
  const int kProducers = 8;
  const int kTasksPerProducer = 500;
  std::atomic<int> plain_done{0};
  std::atomic<long> future_sum{0};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &plain_done, &future_sum, p] {
      std::vector<std::future<int>> futures;
      for (int i = 0; i < kTasksPerProducer; ++i) {
        if (i % 2 == 0) {
          pool.Submit([&plain_done] { plain_done.fetch_add(1); });
        } else {
          futures.push_back(pool.SubmitTask([p, i] { return p * i; }));
        }
      }
      for (auto& future : futures) future_sum.fetch_add(future.get());
    });
  }
  for (auto& producer : producers) producer.join();
  pool.Wait();

  EXPECT_EQ(plain_done.load(), kProducers * kTasksPerProducer / 2);
  long expected_sum = 0;
  for (int p = 0; p < kProducers; ++p) {
    for (int i = 1; i < kTasksPerProducer; i += 2) expected_sum += p * i;
  }
  EXPECT_EQ(future_sum.load(), expected_sum);
  EXPECT_EQ(pool.PendingTasks(), 0u);
}

}  // namespace
}  // namespace vq
