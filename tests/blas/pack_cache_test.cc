#include "blas/pack_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace xphi::blas {
namespace {

using util::Matrix;

TEST(PackCache, SameBlockPacksOnce) {
  Matrix<double> a(95, 16);
  util::fill_hpl_matrix(a.view(), 1);
  PackCache<double> cache;
  const auto p1 = cache.get_a(a.view(), 0, kTileRows);
  const auto p2 = cache.get_a(a.view(), 0, kTileRows);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(PackCache, PackedContentMatchesDirectPack) {
  Matrix<double> a(63, 11), b(11, 37);
  util::fill_hpl_matrix(a.view(), 2);
  util::fill_hpl_matrix(b.view(), 3);
  PackCache<double> cache;
  const auto pa = cache.get_a(a.view(), 0, kTileRows);
  const auto pb = cache.get_b(b.view(), 0, kTileCols);
  PackedA<double> ra;
  PackedB<double> rb;
  ra.pack(a.view());
  rb.pack(b.view());
  ASSERT_EQ(pa->tiles(), ra.tiles());
  for (std::size_t t = 0; t < ra.tiles(); ++t)
    EXPECT_EQ(std::memcmp(pa->tile(t), ra.tile(t),
                          kTileRows * 11 * sizeof(double)),
              0);
  ASSERT_EQ(pb->tiles(), rb.tiles());
  for (std::size_t t = 0; t < rb.tiles(); ++t)
    EXPECT_EQ(std::memcmp(pb->tile(t), rb.tile(t),
                          kTileCols * 11 * sizeof(double)),
              0);
}

TEST(PackCache, DistinctBlocksAndShapesAreDistinctEntries) {
  Matrix<double> m(60, 60);
  util::fill_hpl_matrix(m.view(), 4);
  PackCache<double> cache;
  const auto p1 = cache.get_a(m.block(0, 0, 30, 10), 0, kTileRows);
  // Different origin, different shape, different tiling.
  const auto p2 = cache.get_a(m.block(30, 0, 30, 10), 0, kTileRows);
  const auto p3 = cache.get_a(m.block(0, 0, 30, 20), 0, kTileRows);
  const auto p4 = cache.get_a(m.block(0, 0, 30, 10), 0, 28);
  EXPECT_NE(p1.get(), p2.get());
  EXPECT_NE(p1.get(), p3.get());
  EXPECT_NE(p1.get(), p4.get());
  EXPECT_EQ(p4->tile_rows(), 28u);
  EXPECT_EQ(cache.misses(), 4u);
}

TEST(PackCache, TagScopesTheKeyInTime) {
  // The LU executor keys the stage into the tag: same memory, new values.
  Matrix<double> a(30, 8);
  util::fill_hpl_matrix(a.view(), 5);
  PackCache<double> cache;
  const auto before = cache.get_a(a.view(), /*tag=*/1, kTileRows);
  a(0, 0) = 1234.5;
  const auto stale = cache.get_a(a.view(), /*tag=*/1, kTileRows);
  const auto fresh = cache.get_a(a.view(), /*tag=*/2, kTileRows);
  EXPECT_EQ(before.get(), stale.get());  // same tag: memoized
  EXPECT_NE(before.get(), fresh.get());
  EXPECT_EQ(fresh->tile(0)[0], 1234.5);
}

TEST(PackCache, EvictionIsBoundedAndSafeForOutstandingRefs) {
  Matrix<double> m(30, 200);
  util::fill_hpl_matrix(m.view(), 6);
  PackCache<double> cache(/*max_entries=*/2);
  const auto keep = cache.get_a(m.block(0, 0, 30, 4), 0, kTileRows);
  for (std::size_t c = 0; c < 20; ++c)
    (void)cache.get_a(m.block(0, c * 8, 30, 8), 0, kTileRows);
  EXPECT_LE(cache.entries(), 2u);
  // The evicted entry is still alive through our reference.
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t r = 0; r < 30; ++r)
      EXPECT_EQ(keep->tile(0)[j * 30 + r], m(r, j));
  // Re-requesting an evicted block repacks (miss, not stale hit).
  const std::size_t misses_before = cache.misses();
  (void)cache.get_a(m.block(0, 0, 30, 4), 0, kTileRows);
  EXPECT_EQ(cache.misses(), misses_before + 1);
}

TEST(PackCache, ConcurrentGetsPackOnceAndAgree) {
  Matrix<double> a(123, 19);
  util::fill_hpl_matrix(a.view(), 7);
  PackCache<double> cache;
  util::ThreadPool pool(4);
  std::vector<std::shared_ptr<const PackedA<double>>> got(32);
  pool.parallel_for(got.size(), [&](std::size_t i) {
    got[i] = cache.get_a(a.view(), 0, kTileRows);
  });
  for (const auto& p : got) EXPECT_EQ(p.get(), got[0].get());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), got.size() - 1);
}

TEST(PackCache, ConcurrentChurnSoakNoUseAfterEvict) {
  // Soak: a tiny cache (capacity 3) hammered by 8 threads cycling through 6
  // distinct source panels and a rolling tag, so every thread continuously
  // mixes hits, misses and evictions. Each returned pack is verified against
  // a direct pack of its source — an entry evicted while referenced must
  // stay alive and intact (shared_ptr aliasing), so any use-after-evict
  // shows up as corrupted packed contents (and as a data race under TSan).
  constexpr std::size_t kSources = 6;
  constexpr int kThreads = 8;
  constexpr int kIters = 300;
  std::vector<util::Matrix<double>> sources;
  std::vector<PackedA<double>> direct(kSources);
  for (std::size_t s = 0; s < kSources; ++s) {
    sources.emplace_back(45, 12);
    util::fill_hpl_matrix(sources.back().view(), 100 + s);
    direct[s].pack(sources.back().view());
  }
  PackCache<double> cache(3);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      util::Rng rng(7000 + t);
      for (int i = 0; i < kIters; ++i) {
        const std::size_t s = rng.next_u64() % kSources;
        // A handful of rolling tags keeps evictions churning: the same
        // panel under a fresh tag is a miss that displaces a FIFO victim.
        const std::uint64_t tag = (i / 64) % 3;
        auto p = cache.get_a(sources[s].view(), tag, kTileRows);
        const PackedA<double>& want = direct[s];
        if (p->tiles() != want.tiles() || p->depth() != want.depth()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (std::size_t tile = 0; tile < want.tiles(); ++tile) {
          if (std::memcmp(p->tile(tile), want.tile(tile),
                          sizeof(double) * p->tile_rows() * p->depth()) != 0)
            mismatches.fetch_add(1);
        }
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(cache.entries(), 3u);  // the capacity bound held through churn
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), kSources);  // tag churn forced re-packs
}

}  // namespace
}  // namespace xphi::blas
