#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace {

using bcop::parallel::parallel_for;
using bcop::parallel::parallel_for_chunked;
using bcop::parallel::ThreadPool;

TEST(ThreadPool, InlineModeRunsSubmittedWork) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  int counter = 0;
  pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter, 1);
}

TEST(ThreadPool, WorkersDrainQueue) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&] { ++counter; });
  pool.wait_idle();
  pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

class ParallelForEachPoolSize : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelForEachPoolSize, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(GetParam());
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, 0, 257, [&](std::int64_t i) {
    ++hits[static_cast<std::size_t>(i)];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(ParallelForEachPoolSize, ChunksPartitionTheRange) {
  ThreadPool pool(GetParam());
  std::mutex m;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  parallel_for_chunked(pool, 10, 110, [&](std::int64_t lo, std::int64_t hi) {
    std::lock_guard<std::mutex> lock(m);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  EXPECT_EQ(chunks.front().first, 10);
  EXPECT_EQ(chunks.back().second, 110);
  for (std::size_t i = 1; i < chunks.size(); ++i)
    EXPECT_EQ(chunks[i - 1].second, chunks[i].first);  // contiguous, disjoint
}

TEST_P(ParallelForEachPoolSize, SumMatchesSerial) {
  ThreadPool pool(GetParam());
  std::atomic<std::int64_t> sum{0};
  parallel_for(pool, 1, 1001, [&](std::int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 500500);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ParallelForEachPoolSize,
                         ::testing::Values(0u, 1u, 2u, 4u, 7u));

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(pool, 5, 5, [&](std::int64_t) { ++calls; });
  parallel_for(pool, 5, 3, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  ThreadPool pool(3);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [&](std::int64_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // Pool must remain usable afterwards.
  std::atomic<int> counter{0};
  parallel_for(pool, 0, 10, [&](std::int64_t) { ++counter; });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ParallelFor, SingleIndexRange) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  parallel_for(pool, 41, 42, [&](std::int64_t i) {
    EXPECT_EQ(i, 41);
    ++counter;
  });
  EXPECT_EQ(counter.load(), 1);
}

TEST(GlobalPool, IsSingleton) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
}

}  // namespace
