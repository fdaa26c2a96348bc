// Memoized operand packing (paper Section III-A3).
//
// The LU trailing update and the offload DGEMM tile grid both multiply many
// C blocks against the *same* packed operand panel: every update task of an
// LU stage shares one L21 panel, and every tile in an offload grid row
// (column) shares one A row-panel (B column-panel). Repacking the shared
// panel per consumer wastes exactly the bandwidth the paper's "highly
// optimized packing routines" exist to save, so PackCache packs each
// distinct panel once and hands out shared references. In the DAG LU the
// stage's panel task makes the L21 pack, right after factoring the panel,
// and the stage's update tasks only look it up.
//
// Keys are the block's identity — origin pointer, shape, leading dimension,
// tile blocking — plus a caller-supplied `tag`. The tag is how a caller
// scopes the cache in time: LU keys the factorization stage into it, because
// the same memory region holds *different values* at different stages and a
// pointer+shape key alone would alias them. Entries are evicted FIFO once
// `max_entries` is exceeded; outstanding references keep evicted packs alive
// (shared_ptr), so eviction is a capacity bound, never a correctness hazard.
//
// Thread-safe: concurrent get_a/get_b calls for the same key pack once (the
// loser of the insert race waits on the winner's std::call_once) and all
// receive the same packed panel.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "blas/pack.h"
#include "util/matrix.h"
#include "util/thread_pool.h"

namespace xphi::blas {

template <class T>
class PackCache {
 public:
  explicit PackCache(std::size_t max_entries = 64)
      : max_entries_(std::max<std::size_t>(1, max_entries)) {}

  /// Packed form of `a`, packing on first use. `tag` scopes the key in time
  /// (e.g. the LU stage); the same block with a different tag is a miss.
  /// `tile_rows` has no default: pack at the consumer's dispatched kernel
  /// (mk::Selection::tile_rows()) so outer_product_packed runs that kernel.
  std::shared_ptr<const PackedA<T>> get_a(util::MatrixView<const T> a,
                                          std::uint64_t tag,
                                          std::size_t tile_rows,
                                          util::ThreadPool* pool = nullptr) {
    return get<PackedA<T>>(a_entries_, Key{a.data(), a.rows(), a.cols(),
                                           a.ld(), tile_rows, tag},
                           [&](PackedA<T>& p) { p.pack(a, tile_rows, pool); });
  }

  /// Packed form of `b`, packing on first use (tile_cols: the kernel's nr).
  std::shared_ptr<const PackedB<T>> get_b(util::MatrixView<const T> b,
                                          std::uint64_t tag,
                                          std::size_t tile_cols,
                                          util::ThreadPool* pool = nullptr) {
    return get<PackedB<T>>(b_entries_, Key{b.data(), b.rows(), b.cols(),
                                           b.ld(), tile_cols, tag},
                           [&](PackedB<T>& p) { p.pack(b, tile_cols, pool); });
  }

  void clear() {
    std::lock_guard lk(mu_);
    a_entries_.clear();
    b_entries_.clear();
    fifo_.clear();
  }

  std::size_t hits() const {
    std::lock_guard lk(mu_);
    return hits_;
  }
  std::size_t misses() const {
    std::lock_guard lk(mu_);
    return misses_;
  }
  std::size_t entries() const {
    std::lock_guard lk(mu_);
    return a_entries_.size() + b_entries_.size();
  }

 private:
  struct Key {
    const void* data;
    std::size_t rows, cols, ld, tile;
    std::uint64_t tag;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      // FNV-1a over the key fields.
      std::uint64_t h = 1469598103934665603ull;
      auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 1099511628211ull;
      };
      mix(reinterpret_cast<std::uintptr_t>(k.data));
      mix(k.rows);
      mix(k.cols);
      mix(k.ld);
      mix(k.tile);
      mix(k.tag);
      return static_cast<std::size_t>(h);
    }
  };
  template <class Packed>
  struct Entry {
    std::once_flag once;
    Packed packed;
  };
  template <class Packed>
  using Map =
      std::unordered_map<Key, std::shared_ptr<Entry<Packed>>, KeyHash>;

  template <class Packed, class Map, class PackFn>
  std::shared_ptr<const Packed> get(Map& map, const Key& key, PackFn&& do_pack) {
    std::shared_ptr<Entry<Packed>> entry;
    {
      std::lock_guard lk(mu_);
      auto [it, inserted] = map.try_emplace(key);
      if (inserted) {
        it->second = std::make_shared<Entry<Packed>>();
        fifo_.push_back(
            {key, static_cast<const void*>(&map) ==
                      static_cast<const void*>(&b_entries_)});
        ++misses_;
        evict_locked();
      } else {
        ++hits_;
      }
      entry = it->second;
    }
    // Pack outside the map lock so a slow pack doesn't serialize unrelated
    // lookups; racers on the same key wait here for the packed result.
    std::call_once(entry->once, [&] { do_pack(entry->packed); });
    return std::shared_ptr<const Packed>(entry, &entry->packed);
  }

  void evict_locked() {
    while (a_entries_.size() + b_entries_.size() > max_entries_ &&
           !fifo_.empty()) {
      const auto& [key, is_b] = fifo_.front();
      if (is_b)
        b_entries_.erase(key);
      else
        a_entries_.erase(key);
      fifo_.pop_front();
    }
  }

  const std::size_t max_entries_;
  mutable std::mutex mu_;
  Map<PackedA<T>> a_entries_;
  Map<PackedB<T>> b_entries_;
  std::deque<std::pair<Key, bool>> fifo_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace xphi::blas
