#include "serve/lu_cache.h"

#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <vector>

namespace xphi::serve {
namespace {

std::shared_ptr<const Factorization> make_value(std::size_t n, double fill) {
  auto f = std::make_shared<Factorization>();
  f->lu = util::Matrix<double>(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) f->lu(r, c) = fill;
  f->ipiv.assign(n, 0);
  return f;
}

CacheKey key_of(std::uint64_t hash) {
  return CacheKey{"m64_n64_k32", hash};
}

TEST(ContentHash, BitExactAndSensitive) {
  const double a[3] = {1.0, 2.0, 3.0};
  const double b[3] = {1.0, 2.0, 3.0};
  const double c[3] = {1.0, 2.0, 3.0000000000000004};
  EXPECT_EQ(content_hash_doubles(a, 3), content_hash_doubles(b, 3));
  EXPECT_NE(content_hash_doubles(a, 3), content_hash_doubles(c, 3));
  // +0.0 and -0.0 differ in bits, so they must hash differently.
  const double p[1] = {0.0}, m[1] = {-0.0};
  EXPECT_NE(content_hash_doubles(p, 1), content_hash_doubles(m, 1));
}

TEST(CacheKeyTest, DistinguishesAllComponents) {
  const CacheKey base{"b1", 42};
  EXPECT_EQ(base, (CacheKey{"b1", 42}));
  EXPECT_NE(base.flat(), (CacheKey{"b2", 42}).flat());
  EXPECT_NE(base.flat(), (CacheKey{"b1", 43}).flat());
}

TEST(ShardedLuCacheTest, MissThenHit) {
  ShardedLuCache cache(4, 16);
  EXPECT_EQ(cache.find(key_of(1)), nullptr);
  auto v = make_value(4, 1.5);
  cache.insert(key_of(1), v);
  auto got = cache.find(key_of(1));
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got.get(), v.get());  // same bits: the same object
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.insertions, 1u);
}

TEST(ShardedLuCacheTest, LruEvictsOldest) {
  // One shard, two slots: inserting a third evicts the least recently used.
  ShardedLuCache cache(1, 2);
  cache.insert(key_of(1), make_value(2, 1));
  cache.insert(key_of(2), make_value(2, 2));
  ASSERT_NE(cache.find(key_of(1)), nullptr);  // refresh key 1
  cache.insert(key_of(3), make_value(2, 3));  // evicts key 2
  EXPECT_NE(cache.find(key_of(1)), nullptr);
  EXPECT_EQ(cache.find(key_of(2)), nullptr);
  EXPECT_NE(cache.find(key_of(3)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedLuCacheTest, ReinsertReplacesWithoutEviction) {
  ShardedLuCache cache(1, 2);
  cache.insert(key_of(1), make_value(2, 1));
  auto v2 = make_value(2, 9);
  cache.insert(key_of(1), v2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.find(key_of(1)).get(), v2.get());
}

TEST(ShardedLuCacheTest, CapacitySplitsAcrossShards) {
  ShardedLuCache cache(4, 8);
  EXPECT_EQ(cache.shards(), 4u);
  // Each shard holds ceil(8/4) = 2; total never exceeds shards * 2.
  for (std::uint64_t i = 0; i < 64; ++i)
    cache.insert(key_of(i), make_value(2, static_cast<double>(i)));
  EXPECT_LE(cache.size(), 8u);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(ShardedLuCacheTest, KeysSpreadOverShards) {
  ShardedLuCache cache(4, 64);
  std::vector<bool> used(4, false);
  for (std::uint64_t i = 0; i < 32; ++i) used[cache.shard_of(key_of(i))] = true;
  std::size_t distinct = 0;
  for (bool u : used) distinct += u;
  EXPECT_GE(distinct, 3u);  // FNV spreads 32 keys over >= 3 of 4 shards
}

TEST(ShardedLuCacheTest, DegenerateGeometryClamps) {
  ShardedLuCache cache(0, 0);  // clamps to 1 shard, 1 slot
  EXPECT_EQ(cache.shards(), 1u);
  cache.insert(key_of(1), make_value(2, 1));
  cache.insert(key_of(2), make_value(2, 2));
  EXPECT_EQ(cache.size(), 1u);
}

std::shared_ptr<const Factorization> make_mixed_value(std::size_t n,
                                                      float fill) {
  auto f = std::make_shared<Factorization>();
  f->precision = hpl::Precision::kMixed;
  f->mixed.lu = util::Matrix<float>(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) f->mixed.lu(r, c) = fill;
  f->mixed.ipiv.assign(n, 0);
  return f;
}

TEST(ShardedLuCacheTest, CostUnitsFp32PacksTwiceAsDense) {
  // capacity 2 => one shard with a 4-unit budget: two fp64 entries (2 units
  // each) fill it, but FOUR fp32 entries (1 unit each) fit — the
  // cache-capacity dividend of half-size factors.
  ShardedLuCache cache(1, 2);
  EXPECT_EQ(cache.shard_unit_budget(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i)
    cache.insert(key_of(i), make_mixed_value(2, static_cast<float>(i)));
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.used_units(), 4u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_NE(cache.find(key_of(i)), nullptr) << i;
  // A fifth fp32 entry finally evicts the least recently used one.
  cache.insert(key_of(4), make_mixed_value(2, 4.0f));
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.find(key_of(0)), nullptr);
}

TEST(ShardedLuCacheTest, CostUnitsAllFp64MatchesEntryCountLru) {
  // The budget is 2x the entry share and fp64 costs 2, so an all-fp64
  // workload sees exactly the historical entry-count LRU: capacity 2 holds
  // two entries, never three.
  ShardedLuCache cache(1, 2);
  cache.insert(key_of(1), make_value(2, 1));
  cache.insert(key_of(2), make_value(2, 2));
  EXPECT_EQ(cache.used_units(), 4u);
  cache.insert(key_of(3), make_value(2, 3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.used_units(), 4u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ShardedLuCacheTest, CostUnitsMixedWorkloadEvictsUntilFits) {
  // 4-unit budget holding one fp64 (2) + two fp32 (1+1): a new fp64 entry
  // needs 2 units, so the oldest entry (the fp64 one) goes — freeing
  // exactly enough; the two fp32 entries survive.
  ShardedLuCache cache(1, 2);
  cache.insert(key_of(1), make_value(2, 1));            // 2 units (oldest)
  cache.insert(key_of(2), make_mixed_value(2, 2.0f));   // 1 unit
  cache.insert(key_of(3), make_mixed_value(2, 3.0f));   // 1 unit
  EXPECT_EQ(cache.used_units(), 4u);
  cache.insert(key_of(4), make_value(2, 4));            // needs 2 units
  EXPECT_EQ(cache.find(key_of(1)), nullptr);            // evicted
  EXPECT_NE(cache.find(key_of(2)), nullptr);
  EXPECT_NE(cache.find(key_of(3)), nullptr);
  EXPECT_NE(cache.find(key_of(4)), nullptr);
  EXPECT_LE(cache.used_units(), cache.shard_unit_budget());
  // fp64 and fp32 factors of the same matrix never alias: the bucket carries
  // an "|fp32" suffix in the server's key, making them distinct keys. Model
  // that here: both live side by side.
  ShardedLuCache both(1, 2);
  both.insert(CacheKey{"b64", 7}, make_value(2, 1));
  both.insert(CacheKey{"b64|fp32", 7}, make_mixed_value(2, 1.0f));
  EXPECT_EQ(both.size(), 2u);
  EXPECT_NE(both.find(CacheKey{"b64", 7}), nullptr);
  EXPECT_NE(both.find(CacheKey{"b64|fp32", 7}), nullptr);
}

TEST(ShardedLuCacheTest, ConcurrentMixedTrafficIsSafe) {
  ShardedLuCache cache(4, 32);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (std::uint64_t i = 0; i < 500; ++i) {
        const std::uint64_t k = (i + static_cast<std::uint64_t>(t) * 7) % 48;
        if (auto hit = cache.find(key_of(k))) {
          // Values are immutable; a hit is always fully formed.
          EXPECT_EQ(hit->lu.rows(), 2u);
        } else {
          cache.insert(key_of(k), make_value(2, static_cast<double>(k)));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, 2000u);
  EXPECT_LE(cache.size(), 32u);
}

TEST(BucketExtent, DegenerateAndUnit) {
  EXPECT_EQ(bucket_extent(0), 0u);
  EXPECT_EQ(bucket_extent(1), 1u);
}

TEST(BucketExtent, PowersOfTwoAreFixedPoints) {
  for (std::size_t b = 1; b <= (std::size_t{1} << 20); b <<= 1)
    EXPECT_EQ(bucket_extent(b), b) << b;
}

TEST(BucketExtent, RoundsUpToNextPowerOfTwo) {
  EXPECT_EQ(bucket_extent(3), 4u);
  EXPECT_EQ(bucket_extent(5), 8u);
  EXPECT_EQ(bucket_extent(1025), 2048u);
  // One past a power of two doubles: the boundary the tests pin.
  EXPECT_EQ(bucket_extent((std::size_t{1} << 16) + 1), std::size_t{1} << 17);
  EXPECT_EQ(bucket_extent((std::size_t{1} << 16) - 1), std::size_t{1} << 16);
}

TEST(BucketExtent, SaturatesAtTopBitInsteadOfOverflowing) {
  constexpr std::size_t kTop = std::size_t{1}
                               << (8 * sizeof(std::size_t) - 1);
  EXPECT_EQ(bucket_extent(kTop), kTop);
  EXPECT_EQ(bucket_extent(kTop + 1), kTop);
  EXPECT_EQ(bucket_extent(std::numeric_limits<std::size_t>::max()), kTop);
}

TEST(Bucket, ShapesWithinTwoXShareABucket) {
  // An 82000^2 trailing update warm-starts a 70000^2 one (same 2x band) …
  EXPECT_EQ(bucket(82000, 82000, 1200), bucket(70000, 70000, 1200));
  // … but a shape an order of magnitude smaller never aliases it.
  EXPECT_NE(bucket(82000, 82000, 1200), bucket(8000, 8000, 1200));
}

TEST(Bucket, KeyIsStableAndDistinguishesDimensions) {
  EXPECT_EQ(bucket(82000, 82000, 1200).key(), "m131072_n131072_k2048");
  EXPECT_EQ(bucket(0, 1, 2).key(), "m0_n1_k2");
  // m and n are not interchangeable in the key.
  EXPECT_NE(bucket(100, 200, 50).key(), bucket(200, 100, 50).key());
}

TEST(Bucket, ConstexprUsable) {
  static_assert(bucket_extent(7) == 8);
  static_assert(bucket(3, 5, 9) == ShapeBucket{4, 8, 16});
  SUCCEED();
}

TEST(CacheKey, SolveKeyBytesAreStable) {
  // The flat key is the cache's identity: changing its bytes reshards and
  // cold-starts every cache, so these strings are pinned exactly.
  constexpr std::uint64_t kHash = 0x0123456789abcdefull;
  EXPECT_EQ(solve_cache_key(512, 32, false, kHash).flat(),
            "m512_n512_k32|81985529216486895");
  EXPECT_EQ(solve_cache_key(100, 32, true, kHash).flat(),
            "m128_n128_k32|fp32|81985529216486895");
}

}  // namespace
}  // namespace xphi::serve
