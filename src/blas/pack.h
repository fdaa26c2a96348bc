// Packing into the Knights Corner-friendly tile format (paper Section
// III-A3, Figure 3).
//
// Before each outer product C += Ai * Bi, both operands are repacked:
//
//  * Ai (M x k) -> block row-major sequence of (tile_rows x k) tiles, each
//    tile stored COLUMN-major. A column of `a` is then contiguous, which is
//    what lets the kernel 1to8-broadcast consecutive elements and keeps
//    prefetch address arithmetic trivial (the paper transposes the packed
//    tiles of Ai "to spread out prefetches more uniformly").
//  * Bi (k x N) -> block row-major sequence of (k x tile_cols) tiles, each
//    tile stored ROW-major, so an 8-wide row of `b` is one aligned vector
//    load.
//
// Edge tiles are zero-padded to full tile width: the kernel always runs
// full-width vector operations and the store-back masks the padding (this is
// the "edge waste" term in the performance model's utilization).
//
// Tiles are independent, so pack() parallelizes across tiles when given a
// pool — the paper's "highly optimized packing routines" are bandwidth-bound
// for exactly this reason. The two-phase prepare()/pack_tile() API exposes
// per-tile packing so a caller can fold pack tasks of the *next* rank-k
// chunk into the same dispatch as the current chunk's outer products
// (gemm_tiled does this). Pack buffers keep their capacity across pack()
// calls: repacking per rank-k chunk reuses the allocation instead of paying
// an aligned_alloc + zero-fill each time.
#pragma once

#include <algorithm>
#include <cstddef>

#include "util/aligned.h"
#include "util/matrix.h"
#include "util/thread_pool.h"

namespace xphi::blas {

/// Default packed-tile geometry: the 3x8 registry shape's 30-row A tile
/// (ten 3-row register blocks, Basic Kernel 2's 30-row C block) and 8-wide
/// B tile. Registry kernels carry their own tile_rows/nr, and every
/// packed-GEMM consumer (gemm_tiled, the DAG LU update, the offload engine)
/// packs at the dispatched kernel's geometry, so these constants only serve
/// callers that pack with the defaults.
inline constexpr std::size_t kTileRows = 30;
inline constexpr std::size_t kTileCols = 8;

/// Packed form of an M x k block of A.
template <class T>
class PackedA {
 public:
  PackedA() = default;

  /// Sets the geometry for packing `a` (rows x k) and sizes the store,
  /// reusing the existing allocation when possible. Returns the tile count.
  /// The view is retained: it must stay valid until packing completes.
  std::size_t prepare(util::MatrixView<const T> a,
                      std::size_t tile_rows = kTileRows) {
    src_ = a;
    rows_ = a.rows();
    depth_ = a.cols();
    tile_rows_ = tile_rows;
    tiles_ = (rows_ + tile_rows_ - 1) / tile_rows_;
    store_.resize_for_overwrite(tiles_ * tile_rows_ * depth_);
    return tiles_;
  }

  /// Packs tile t from the view given to prepare(). Tiles are independent;
  /// distinct tiles may be packed concurrently.
  void pack_tile(std::size_t t) {
    T* tile = store_.data() + t * tile_rows_ * depth_;
    const std::size_t r0 = t * tile_rows_;
    const std::size_t nr = std::min(tile_rows_, rows_ - r0);
    // Tile is column-major: element (r, j) at tile[j * tile_rows + r].
    for (std::size_t j = 0; j < depth_; ++j) {
      for (std::size_t r = 0; r < nr; ++r)
        tile[j * tile_rows_ + r] = src_(r0 + r, j);
      for (std::size_t r = nr; r < tile_rows_; ++r)
        tile[j * tile_rows_ + r] = T{};
    }
  }

  /// Packs `a` (rows x k). tile_rows defaults to the Basic Kernel 2 blocking.
  void pack(util::MatrixView<const T> a, std::size_t tile_rows = kTileRows,
            util::ThreadPool* pool = nullptr) {
    prepare(a, tile_rows);
    if (pool != nullptr) {
      pool->parallel_for(tiles_, [this](std::size_t t) { pack_tile(t); });
    } else {
      for (std::size_t t = 0; t < tiles_; ++t) pack_tile(t);
    }
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t depth() const noexcept { return depth_; }
  std::size_t tile_rows() const noexcept { return tile_rows_; }
  std::size_t tiles() const noexcept { return tiles_; }

  /// Pointer to tile t (tile_rows x depth, column-major).
  const T* tile(std::size_t t) const noexcept {
    return store_.data() + t * tile_rows_ * depth_;
  }
  /// Rows of the original matrix covered by tile t (<= tile_rows).
  std::size_t tile_height(std::size_t t) const noexcept {
    const std::size_t r0 = t * tile_rows_;
    return std::min(tile_rows_, rows_ - r0);
  }

 private:
  std::size_t rows_ = 0, depth_ = 0, tile_rows_ = kTileRows, tiles_ = 0;
  util::MatrixView<const T> src_;
  util::AlignedBuffer<T> store_;
};

/// Packed form of a k x N block of B.
template <class T>
class PackedB {
 public:
  PackedB() = default;

  /// Two-phase API, mirroring PackedA. Returns the tile count.
  std::size_t prepare(util::MatrixView<const T> b,
                      std::size_t tile_cols = kTileCols) {
    src_ = b;
    depth_ = b.rows();
    cols_ = b.cols();
    tile_cols_ = tile_cols;
    tiles_ = (cols_ + tile_cols_ - 1) / tile_cols_;
    store_.resize_for_overwrite(tiles_ * tile_cols_ * depth_);
    return tiles_;
  }

  void pack_tile(std::size_t t) {
    T* tile = store_.data() + t * tile_cols_ * depth_;
    const std::size_t c0 = t * tile_cols_;
    const std::size_t nc = std::min(tile_cols_, cols_ - c0);
    // Tile is row-major: element (j, c) at tile[j * tile_cols + c].
    for (std::size_t j = 0; j < depth_; ++j) {
      for (std::size_t c = 0; c < nc; ++c)
        tile[j * tile_cols_ + c] = src_(j, c0 + c);
      for (std::size_t c = nc; c < tile_cols_; ++c)
        tile[j * tile_cols_ + c] = T{};
    }
  }

  void pack(util::MatrixView<const T> b, std::size_t tile_cols = kTileCols,
            util::ThreadPool* pool = nullptr) {
    prepare(b, tile_cols);
    if (pool != nullptr) {
      pool->parallel_for(tiles_, [this](std::size_t t) { pack_tile(t); });
    } else {
      for (std::size_t t = 0; t < tiles_; ++t) pack_tile(t);
    }
  }

  std::size_t depth() const noexcept { return depth_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t tile_cols() const noexcept { return tile_cols_; }
  std::size_t tiles() const noexcept { return tiles_; }

  const T* tile(std::size_t t) const noexcept {
    return store_.data() + t * tile_cols_ * depth_;
  }
  std::size_t tile_width(std::size_t t) const noexcept {
    const std::size_t c0 = t * tile_cols_;
    return std::min(tile_cols_, cols_ - c0);
  }

 private:
  std::size_t depth_ = 0, cols_ = 0, tile_cols_ = kTileCols, tiles_ = 0;
  util::MatrixView<const T> src_;
  util::AlignedBuffer<T> store_;
};

}  // namespace xphi::blas
