// Two-dimensional block-cyclic data distribution (the layout HPL and our
// multi-node drivers use). The global matrix is cut into nb x nb blocks;
// block (bi, bj) lives on process (bi mod P, bj mod Q) of the P x Q grid.
#pragma once

#include <cassert>
#include <cstddef>

namespace xphi::hpl {

struct Grid {
  int p = 1;  // process rows
  int q = 1;  // process columns

  int ranks() const noexcept { return p * q; }
  /// Row-major rank numbering over the grid.
  int rank_of(int prow, int pcol) const noexcept { return prow * q + pcol; }
  int prow_of(int rank) const noexcept { return rank / q; }
  int pcol_of(int rank) const noexcept { return rank % q; }
};

class BlockCyclic {
 public:
  BlockCyclic(std::size_t n, std::size_t nb, Grid grid)
      : n_(n), nb_(nb), grid_(grid) {
    assert(nb_ > 0);
  }

  std::size_t n() const noexcept { return n_; }
  std::size_t nb() const noexcept { return nb_; }
  const Grid& grid() const noexcept { return grid_; }
  std::size_t num_blocks() const noexcept { return (n_ + nb_ - 1) / nb_; }

  /// Owner process-row of global row `gi` (and analogously for columns).
  int owner_prow(std::size_t gi) const noexcept {
    return static_cast<int>((gi / nb_) % grid_.p);
  }
  int owner_pcol(std::size_t gj) const noexcept {
    return static_cast<int>((gj / nb_) % grid_.q);
  }

  /// Local row index of global row `gi` on its owner.
  std::size_t local_row(std::size_t gi) const noexcept {
    const std::size_t block = gi / nb_;
    return (block / grid_.p) * nb_ + gi % nb_;
  }
  std::size_t local_col(std::size_t gj) const noexcept {
    const std::size_t block = gj / nb_;
    return (block / grid_.q) * nb_ + gj % nb_;
  }

  /// Global row index of local row `li` on process-row `prow`.
  std::size_t global_row(int prow, std::size_t li) const noexcept {
    const std::size_t local_block = li / nb_;
    return (local_block * grid_.p + prow) * nb_ + li % nb_;
  }
  std::size_t global_col(int pcol, std::size_t lj) const noexcept {
    const std::size_t local_block = lj / nb_;
    return (local_block * grid_.q + pcol) * nb_ + lj % nb_;
  }

  /// Number of local rows held by process-row `prow`.
  std::size_t local_rows(int prow) const noexcept {
    return local_extent(prow, grid_.p);
  }
  std::size_t local_cols(int pcol) const noexcept {
    return local_extent(pcol, grid_.q);
  }

  /// First local row of process-row `prow` whose global index is >= g
  /// (local_rows(prow) when there is none).
  std::size_t first_local_row(int prow, std::size_t g) const noexcept {
    return first_local(prow, grid_.p, g, local_rows(prow));
  }
  std::size_t first_local_col(int pcol, std::size_t g) const noexcept {
    return first_local(pcol, grid_.q, g, local_cols(pcol));
  }

 private:
  /// The owned blocks before global block g / nb are all full, so the
  /// answer is their row count, plus g's offset when g's block is owned.
  std::size_t first_local(int pos, int procs, std::size_t g,
                          std::size_t extent) const noexcept {
    const std::size_t block = g / nb_;
    const std::size_t np = static_cast<std::size_t>(procs);
    const std::size_t p = static_cast<std::size_t>(pos);
    const std::size_t owned_before = block / np + (block % np > p ? 1 : 0);
    const std::size_t lo =
        owned_before * nb_ + (block % np == p ? g % nb_ : 0);
    return lo < extent ? lo : extent;
  }

  std::size_t local_extent(int pos, int procs) const noexcept {
    const std::size_t blocks = num_blocks();
    const std::size_t full = blocks / procs;
    std::size_t extent = full * nb_;
    const std::size_t extra = blocks % procs;
    if (static_cast<std::size_t>(pos) < extra) {
      // This process holds one more block; the globally-last block may be
      // ragged.
      const bool owns_last =
          static_cast<std::size_t>(pos) == (blocks - 1) % procs;
      const std::size_t last_size = n_ - (blocks - 1) * nb_;
      extent += owns_last ? last_size : nb_;
    } else if (extra == 0 && full > 0 &&
               static_cast<std::size_t>(pos) == (blocks - 1) % procs) {
      // Even distribution: trim the ragged tail off the last block owner.
      extent -= nb_ - (n_ - (blocks - 1) * nb_);
    }
    return extent;
  }

  std::size_t n_;
  std::size_t nb_;
  Grid grid_;
};

}  // namespace xphi::hpl
