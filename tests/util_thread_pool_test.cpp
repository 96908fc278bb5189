#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace haven::util {
namespace {

TEST(ThreadPool, ResultsArriveInSubmissionOrder) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  futures.reserve(100);
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto boom = pool.submit([]() -> int { throw std::runtime_error("candidate exploded"); });
  auto after = pool.submit([] { return 8; });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(
      {
        try {
          boom.get();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "candidate exploded");
          throw;
        }
      },
      std::runtime_error);
  // A throwing task must not take its worker down with it.
  EXPECT_EQ(after.get(), 8);
}

TEST(ThreadPool, ZeroTasksConstructsAndJoinsCleanly) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  // Destructor joins with an empty queue; nothing to assert beyond no hang.
}

TEST(ThreadPool, ZeroWorkersClampsToDefault) {
  ThreadPool pool(0);
  EXPECT_GE(pool.worker_count(), 1u);
  EXPECT_EQ(pool.submit([] { return 42; }).get(), 42);
}

TEST(ThreadPool, DefaultWorkerCountIsPositive) {
  EXPECT_GE(ThreadPool::default_worker_count(), 1u);
}

TEST(ThreadPool, AllSubmittedTasksExecuteExactlyOnce) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool(4);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 257; ++i) {
      futures.push_back(pool.submit([&executed] { executed.fetch_add(1); }));
    }
    for (auto& f : futures) f.get();
    // Destructor also drains anything still queued.
  }
  EXPECT_EQ(executed.load(), 257);
}

TEST(ThreadPool, DrainsQueueOnDestructionWithoutGet) {
  std::atomic<int> executed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&executed] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        executed.fetch_add(1);
      });
    }
  }  // destructor must run every queued task before joining
  EXPECT_EQ(executed.load(), 64);
}

}  // namespace
}  // namespace haven::util
