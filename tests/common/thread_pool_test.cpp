#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace am {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversIndexSpace) {
  ThreadPool pool(8);
  std::vector<int> hits(1000, 0);
  parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
}

TEST(ThreadPool, ChunkedParallelForCoversIndexSpaceOncePerIndex) {
  ThreadPool pool(4);
  for (const std::size_t grain : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{5000}}) {
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(pool, hits.size(), grain,
                 [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), 1) << "grain=" << grain << " i=" << i;
  }
}

TEST(ThreadPool, ChunkedParallelForHandlesDegenerateArgs) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  parallel_for(pool, 0, 16, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
  parallel_for(pool, 10, 0, [&](std::size_t) { ++count; });  // grain 0 -> 1
  EXPECT_EQ(count.load(), 10);
}

// Indices 17 and 63 throw; 17 first waits until 63 has thrown, so the
// rethrown exception is chosen by index, not by which throw came first.
// Every other index must still run (also the rest of 17's chunk), and the
// pool must take new work afterwards.
TEST(ThreadPool, ParallelForRethrowsLowestThrowingIndexAfterRunningTheRest) {
  ThreadPool pool(4);
  for (const std::size_t grain : {std::size_t{1}, std::size_t{10}}) {
    std::vector<std::atomic<int>> hits(100);
    std::atomic<bool> high_thrown{false};
    const auto fn = [&](std::size_t i) {
      ++hits[i];
      if (i == 17) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!high_thrown.load() &&
               std::chrono::steady_clock::now() < deadline)
          std::this_thread::yield();
        throw std::runtime_error("17");
      }
      if (i == 63) {
        high_thrown = true;
        throw std::runtime_error("63");
      }
    };
    try {
      parallel_for(pool, hits.size(), grain, fn);
      ADD_FAILURE() << "grain=" << grain << ": nothing was rethrown";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "17") << "grain=" << grain;
    }
    EXPECT_TRUE(high_thrown.load()) << "grain=" << grain;
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), 1) << "grain=" << grain << " i=" << i;

    std::atomic<int> count{0};
    parallel_for(pool, 50, grain, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 50) << "grain=" << grain;
  }
}

TEST(ThreadPool, ParallelForRethrowsThroughTheUnchunkedOverload) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  const auto fn = [&](std::size_t i) {
    ++count;
    if (i % 2 == 1) throw std::logic_error("odd");
  };
  EXPECT_THROW(parallel_for(pool, 8, fn), std::logic_error);
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  parallel_for(pool, 10, [&](std::size_t) { ++count; });
  parallel_for(pool, 10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GT(pool.size(), 0u);
}

// Many producer threads racing submit() against the workers and against
// pool destruction. Primarily a TSan workload (run under
// `cmake --preset tsan`): it exercises the queue/in_flight/stop handoff
// that the AM_GUARDED_BY annotations promise is mutex-protected.
TEST(ThreadPool, ConcurrentSubmittersStress) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    std::vector<std::thread> producers;
    producers.reserve(4);
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < 250; ++i) pool.submit([&] { ++count; });
      });
    }
    for (auto& t : producers) t.join();
    pool.wait_idle();
    EXPECT_EQ(count.load(), 1000);
    // ~pool joins workers with an empty queue here.
  }
  EXPECT_EQ(count.load(), 1000);
}

}  // namespace
}  // namespace am
