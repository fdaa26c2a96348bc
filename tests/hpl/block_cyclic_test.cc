#include "hpl/block_cyclic.h"

#include <gtest/gtest.h>

#include <vector>

namespace xphi::hpl {
namespace {

TEST(Grid, RankMapping) {
  Grid g{2, 3};
  EXPECT_EQ(g.ranks(), 6);
  EXPECT_EQ(g.rank_of(1, 2), 5);
  EXPECT_EQ(g.prow_of(5), 1);
  EXPECT_EQ(g.pcol_of(5), 2);
}

TEST(BlockCyclic, OwnerCyclesThroughRows) {
  BlockCyclic d(100, 10, Grid{2, 2});
  EXPECT_EQ(d.owner_prow(0), 0);
  EXPECT_EQ(d.owner_prow(9), 0);
  EXPECT_EQ(d.owner_prow(10), 1);
  EXPECT_EQ(d.owner_prow(20), 0);
  EXPECT_EQ(d.owner_pcol(35), 1);
}

TEST(BlockCyclic, GlobalLocalRoundTrip) {
  BlockCyclic d(97, 8, Grid{3, 2});
  for (std::size_t g = 0; g < 97; ++g) {
    const int prow = d.owner_prow(g);
    const std::size_t lr = d.local_row(g);
    EXPECT_EQ(d.global_row(prow, lr), g);
    const int pcol = d.owner_pcol(g);
    const std::size_t lc = d.local_col(g);
    EXPECT_EQ(d.global_col(pcol, lc), g);
  }
}

TEST(BlockCyclic, LocalExtentsSumToGlobal) {
  for (std::size_t n : {64u, 97u, 100u, 128u}) {
    for (int p : {1, 2, 3, 4}) {
      BlockCyclic d(n, 8, Grid{p, 1});
      std::size_t total = 0;
      for (int r = 0; r < p; ++r) total += d.local_rows(r);
      EXPECT_EQ(total, n) << "n=" << n << " p=" << p;
    }
  }
}

TEST(BlockCyclic, LocalRowsMatchEnumeration) {
  // The closed-form extents must match brute-force counting.
  for (std::size_t n : {40u, 41u, 47u, 48u, 60u}) {
    for (int p : {1, 2, 3}) {
      BlockCyclic d(n, 8, Grid{p, 2});
      std::vector<std::size_t> count(p, 0);
      for (std::size_t g = 0; g < n; ++g) count[d.owner_prow(g)]++;
      for (int r = 0; r < p; ++r)
        EXPECT_EQ(d.local_rows(r), count[r]) << "n=" << n << " p=" << p
                                             << " r=" << r;
    }
  }
}

TEST(BlockCyclic, LocalColsMatchEnumeration) {
  for (std::size_t n : {40u, 47u, 55u}) {
    for (int q : {1, 2, 4}) {
      BlockCyclic d(n, 8, Grid{2, q});
      std::vector<std::size_t> count(q, 0);
      for (std::size_t g = 0; g < n; ++g) count[d.owner_pcol(g)]++;
      for (int c = 0; c < q; ++c) EXPECT_EQ(d.local_cols(c), count[c]);
    }
  }
}

TEST(BlockCyclic, LocalIndicesAreMonotone) {
  // Within a rank, increasing local row index means increasing global index —
  // the property the distributed HPL's trailing-suffix logic relies on.
  BlockCyclic d(120, 16, Grid{3, 1});
  for (int prow = 0; prow < 3; ++prow) {
    std::size_t prev = 0;
    for (std::size_t lr = 0; lr < d.local_rows(prow); ++lr) {
      const std::size_t g = d.global_row(prow, lr);
      if (lr > 0) {
        EXPECT_GT(g, prev);
      }
      prev = g;
    }
  }
}

TEST(BlockCyclic, SingleProcessOwnsEverything) {
  BlockCyclic d(50, 7, Grid{1, 1});
  EXPECT_EQ(d.local_rows(0), 50u);
  EXPECT_EQ(d.local_cols(0), 50u);
  for (std::size_t g = 0; g < 50; ++g) EXPECT_EQ(d.local_row(g), g);
}

TEST(BlockCyclic, FirstLocalIndexMatchesLinearScan) {
  // The closed-form lower bound must equal a scan over the local indices,
  // for every process position, including g at and past n and ragged n.
  auto scan = [](std::size_t extent, auto global_of, std::size_t g) {
    std::size_t lo = 0;
    while (lo < extent && global_of(lo) < g) ++lo;
    return lo;
  };
  for (std::size_t n : {1u, 7u, 8u, 40u, 41u, 47u, 63u, 64u, 97u}) {
    for (int p = 1; p <= 4; ++p) {
      for (int q = 1; q <= 4; ++q) {
        const BlockCyclic d(n, 8, Grid{p, q});
        for (std::size_t g = 0; g <= n + 17; ++g) {
          for (int prow = 0; prow < p; ++prow)
            EXPECT_EQ(d.first_local_row(prow, g),
                      scan(d.local_rows(prow),
                           [&](std::size_t l) { return d.global_row(prow, l); },
                           g))
                << "n=" << n << " p=" << p << " prow=" << prow << " g=" << g;
          for (int pcol = 0; pcol < q; ++pcol)
            EXPECT_EQ(d.first_local_col(pcol, g),
                      scan(d.local_cols(pcol),
                           [&](std::size_t l) { return d.global_col(pcol, l); },
                           g))
                << "n=" << n << " q=" << q << " pcol=" << pcol << " g=" << g;
        }
      }
    }
  }
}

}  // namespace
}  // namespace xphi::hpl
