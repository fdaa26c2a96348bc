#include "blas/getrf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "blas/residual.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace xphi::blas {
namespace {

using util::Matrix;

// Factor, solve, and check the HPL residual — the end-to-end acceptance test
// every Linpack run in the paper performs.
double factor_solve_residual(std::size_t n, std::size_t nb,
                             util::ThreadPool* pool = nullptr) {
  Matrix<double> a(n, n), orig(n, n);
  util::fill_hpl_matrix(a.view(), 42);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) orig(r, c) = a(r, c);
  std::vector<double> b(n), x(n);
  util::Rng rng(7);
  for (auto& v : b) v = rng.next_centered();
  x = b;
  std::vector<std::size_t> ipiv(n);
  EXPECT_TRUE(getrf_blocked<double>(a.view(), ipiv, nb, pool));
  lu_solve_vector<double>(a.view(), ipiv, x);
  return hpl_residual<double>(orig.view(), x, b);
}

TEST(GetrfBlocked, PassesHplCheckSmall) {
  EXPECT_LT(factor_solve_residual(64, 16), kHplResidualThreshold);
}

TEST(GetrfBlocked, PassesHplCheckMedium) {
  EXPECT_LT(factor_solve_residual(200, 32), kHplResidualThreshold);
}

TEST(GetrfBlocked, PassesHplCheckRaggedBlock) {
  // n not a multiple of nb.
  EXPECT_LT(factor_solve_residual(130, 48), kHplResidualThreshold);
}

TEST(GetrfBlocked, PassesHplCheckNbLargerThanN) {
  EXPECT_LT(factor_solve_residual(20, 64), kHplResidualThreshold);
}

TEST(GetrfBlocked, WithThreadPool) {
  util::ThreadPool pool(3);
  EXPECT_LT(factor_solve_residual(150, 32, &pool), kHplResidualThreshold);
}

TEST(GetrfBlocked, MatchesUnblockedFactors) {
  const std::size_t n = 96;
  Matrix<double> a1(n, n), a2(n, n);
  util::fill_hpl_matrix(a1.view(), 5);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a2(r, c) = a1(r, c);
  std::vector<std::size_t> p1(n), p2(n);
  ASSERT_TRUE(getrf_unblocked<double>(a1.view(), p1));
  ASSERT_TRUE(getrf_blocked<double>(a2.view(), p2, 24));
  EXPECT_EQ(p1, p2);
  EXPECT_LT(util::max_abs_diff<double>(a1.view(), a2.view()), 1e-10);
}

TEST(GetrfBlocked, DetectsSingular) {
  Matrix<double> a(16, 16);
  a.fill(2.0);  // rank 1
  std::vector<std::size_t> ipiv(16);
  EXPECT_FALSE(getrf_blocked<double>(a.view(), ipiv, 4));
}

TEST(HplResidual, ZeroForExactSolve) {
  // A = I: x == b exactly.
  const std::size_t n = 8;
  Matrix<double> a(n, n);
  a.fill(0);
  for (std::size_t i = 0; i < n; ++i) a(i, i) = 1.0;
  std::vector<double> b = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(hpl_residual<double>(a.view(), b, b), 0.0);
}

TEST(HplResidual, LargeForWrongSolution) {
  const std::size_t n = 8;
  Matrix<double> a(n, n);
  util::fill_hpl_matrix(a.view(), 1);
  std::vector<double> b(n, 1.0), x(n, 1e6);
  EXPECT_GT(hpl_residual<double>(a.view(), x, b), kHplResidualThreshold);
}

TEST(HplResidual, RowRangeCompositionIsBitIdentical) {
  // Folding any split of the rows into per-range maxima, combining them with
  // max and scaling once must reproduce the sequential check bit for bit —
  // the contract the distributed HPL's row-partitioned check relies on.
  const std::size_t n = 67;
  Matrix<double> a(n, n);
  util::fill_hpl_matrix(a.view(), 3);
  std::vector<double> x(n), b(n);
  util::Rng rng(11);
  for (auto& v : x) v = rng.next_centered();
  for (auto& v : b) v = rng.next_centered();
  const double whole = hpl_residual<double>(a.view(), x, b);
  EXPECT_EQ(residual_maxima<double>(a.view(), x, b).a_inf,
            util::norm_inf<double>(a.view()));
  util::Rng cuts(13);
  for (std::size_t ranges = 1; ranges <= 5; ++ranges) {
    for (int trial = 0; trial < 8; ++trial) {
      // ranges - 1 sorted cut points in [0, n]; empty ranges are allowed.
      std::vector<std::size_t> bounds{0, n};
      for (std::size_t c = 1; c < ranges; ++c)
        bounds.push_back(static_cast<std::size_t>(cuts.next_u64() % (n + 1)));
      std::sort(bounds.begin(), bounds.end());
      ResidualMaxima m;
      for (std::size_t r = 0; r + 1 < bounds.size(); ++r) {
        const std::size_t r0 = bounds[r], r1 = bounds[r + 1];
        const ResidualMaxima part = residual_maxima<double>(
            a.view().block(r0, 0, r1 - r0, n), x,
            std::span<const double>(b).subspan(r0, r1 - r0));
        m.r_inf = std::max(m.r_inf, part.r_inf);
        m.a_inf = std::max(m.a_inf, part.a_inf);
      }
      EXPECT_EQ(scale_residual<double>(m, x, b), whole)
          << "ranges=" << ranges << " trial=" << trial;
    }
  }
}

// Property sweep across sizes and block widths.
class GetrfSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GetrfSweep, ResidualUnderThreshold) {
  const auto [n, nb] = GetParam();
  EXPECT_LT(factor_solve_residual(n, nb), kHplResidualThreshold);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GetrfSweep,
                         ::testing::Combine(::testing::Values(33, 64, 100, 170),
                                            ::testing::Values(8, 30, 51)));

}  // namespace
}  // namespace xphi::blas
