#include "serve/lu_cache.h"

#include <cstring>
#include <utility>

#include "sim/machine.h"

namespace xphi::serve {

CacheKey solve_cache_key(std::size_t n, std::size_t nb, bool fp32,
                         std::uint64_t content_hash) {
  std::string shape = bucket(n, n, nb).key();
  if (fp32) shape += "|fp32";
  return CacheKey{sim::default_fingerprint(), std::move(shape), content_hash};
}

std::uint64_t content_hash_doubles(const double* data, std::size_t count) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, &data[i], sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffull;
      h *= 0x100000001b3ull;  // FNV prime
    }
  }
  return h;
}

namespace {

std::uint64_t fnv1a_str(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

ShardedLuCache::ShardedLuCache(std::size_t shards, std::size_t capacity) {
  if (shards == 0) shards = 1;
  if (capacity == 0) capacity = 1;
  // Entry capacity split as before, then doubled into cost units: an
  // all-fp64 workload (2 units each) evicts at exactly the historical entry
  // count, while fp32 entries (1 unit) pack twice as densely.
  std::size_t shard_entries = (capacity + shards - 1) / shards;
  if (shard_entries == 0) shard_entries = 1;
  shard_budget_ = 2 * shard_entries;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

std::size_t ShardedLuCache::shard_of(const CacheKey& key) const {
  return fnv1a_str(key.flat()) % shards_.size();
}

std::shared_ptr<const Factorization> ShardedLuCache::find(const CacheKey& key) {
  Shard& shard = *shards_[shard_of(key)];
  const std::string flat = key.flat();
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(flat);
  if (it == shard.index.end()) {
    ++shard.stats.misses;
    return nullptr;
  }
  // Refresh: move to the front of the LRU list.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.stats.hits;
  return it->second->second;
}

void ShardedLuCache::insert(const CacheKey& key,
                            std::shared_ptr<const Factorization> value) {
  Shard& shard = *shards_[shard_of(key)];
  std::string flat = key.flat();
  const std::size_t cost = factorization_cost(*value);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(flat);
  if (it != shard.index.end()) {
    shard.used_units -= factorization_cost(*it->second->second);
    shard.used_units += cost;
    it->second->second = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    ++shard.stats.insertions;
    return;
  }
  while (!shard.lru.empty() && shard.used_units + cost > shard_budget_) {
    shard.used_units -= factorization_cost(*shard.lru.back().second);
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    ++shard.stats.evictions;
  }
  shard.used_units += cost;
  shard.lru.emplace_front(std::move(flat), std::move(value));
  shard.index.emplace(shard.lru.front().first, shard.lru.begin());
  ++shard.stats.insertions;
}

ShardedLuCache::Stats ShardedLuCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.insertions += shard->stats.insertions;
    total.evictions += shard->stats.evictions;
  }
  return total;
}

std::size_t ShardedLuCache::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->lru.size();
  }
  return n;
}

std::size_t ShardedLuCache::used_units() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->used_units;
  }
  return n;
}

}  // namespace xphi::serve
