#include "blas/lu_kernels.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "blas/gemm_ref.h"
#include "util/rng.h"

namespace xphi::blas {
namespace {

using util::Matrix;

TEST(Iamax, FindsLargestMagnitude) {
  Matrix<double> a(4, 2);
  a(0, 0) = 1; a(1, 0) = -5; a(2, 0) = 3; a(3, 0) = 4;
  EXPECT_EQ(iamax_col<double>(a.view(), 0, 0), 1u);
  EXPECT_EQ(iamax_col<double>(a.view(), 0, 2), 3u);
}

TEST(SwapRows, Swaps) {
  Matrix<double> a(3, 3);
  util::fill_hpl_matrix(a.view(), 1);
  const double a00 = a(0, 0), a20 = a(2, 0);
  swap_rows(a.view(), 0, 2);
  EXPECT_EQ(a(0, 0), a20);
  EXPECT_EQ(a(2, 0), a00);
}

TEST(Laswp, BackwardUndoesForward) {
  Matrix<double> a(6, 4), orig(6, 4);
  util::fill_hpl_matrix(a.view(), 2);
  for (std::size_t r = 0; r < 6; ++r)
    for (std::size_t c = 0; c < 4; ++c) orig(r, c) = a(r, c);
  std::vector<std::size_t> ipiv = {3, 1, 5, 4};
  laswp<double>(a.view(), ipiv, 0, 4, /*forward=*/true);
  laswp<double>(a.view(), ipiv, 0, 4, /*forward=*/false);
  EXPECT_EQ(util::max_abs_diff<double>(a.view(), orig.view()), 0.0);
}

TEST(GetrfUnblocked, ReproducesPLU) {
  // Verify P*A = L*U by reconstruction.
  const std::size_t n = 12;
  Matrix<double> a(n, n), orig(n, n);
  util::fill_hpl_matrix(a.view(), 3);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) orig(r, c) = a(r, c);
  std::vector<std::size_t> ipiv(n);
  ASSERT_TRUE(getrf_unblocked<double>(a.view(), ipiv));

  // Reconstruct L*U.
  Matrix<double> l(n, n), u(n, n), lu(n, n);
  l.fill(0); u.fill(0); lu.fill(0);
  for (std::size_t r = 0; r < n; ++r) {
    l(r, r) = 1.0;
    for (std::size_t c = 0; c < r; ++c) l(r, c) = a(r, c);
    for (std::size_t c = r; c < n; ++c) u(r, c) = a(r, c);
  }
  gemm_ref<double>(1.0, l.view(), u.view(), 0.0, lu.view());
  // Apply the same interchanges to the original.
  laswp<double>(orig.view(), ipiv, 0, n);
  EXPECT_LT(util::max_abs_diff<double>(lu.view(), orig.view()), 1e-12);
}

TEST(GetrfUnblocked, DetectsSingular) {
  Matrix<double> a(3, 3);
  a.fill(1.0);  // rank 1
  std::vector<std::size_t> ipiv(3);
  EXPECT_FALSE(getrf_unblocked<double>(a.view(), ipiv));
}

TEST(GetrfUnblocked, TallPanel) {
  Matrix<double> a(20, 5), orig(20, 5);
  util::fill_hpl_matrix(a.view(), 4);
  for (std::size_t r = 0; r < 20; ++r)
    for (std::size_t c = 0; c < 5; ++c) orig(r, c) = a(r, c);
  std::vector<std::size_t> ipiv(5);
  ASSERT_TRUE(getrf_unblocked<double>(a.view(), ipiv));
  // L (20x5 unit-lower trapezoid) * U (5x5 upper) == P * orig.
  Matrix<double> l(20, 5), u(5, 5), lu(20, 5);
  l.fill(0); u.fill(0); lu.fill(0);
  for (std::size_t r = 0; r < 20; ++r)
    for (std::size_t c = 0; c < 5; ++c) {
      if (r == c) l(r, c) = 1.0;
      else if (r > c) l(r, c) = a(r, c);
      if (r <= c && r < 5) u(r, c) = a(r, c);
    }
  gemm_ref<double>(1.0, l.view(), u.view(), 0.0, lu.view());
  laswp<double>(orig.view(), ipiv, 0, 5);
  EXPECT_LT(util::max_abs_diff<double>(lu.view(), orig.view()), 1e-12);
}

TEST(GetrfPanel, MatchesUnblocked) {
  for (std::size_t n : {8u, 16u, 33u}) {
    Matrix<double> a1(64, n), a2(64, n);
    util::fill_hpl_matrix(a1.view(), 5 + n);
    for (std::size_t r = 0; r < 64; ++r)
      for (std::size_t c = 0; c < n; ++c) a2(r, c) = a1(r, c);
    std::vector<std::size_t> p1(n), p2(n);
    ASSERT_TRUE(getrf_unblocked<double>(a1.view(), p1));
    ASSERT_TRUE(getrf_panel<double>(a2.view(), p2, PanelOptions{.nb_min = 4}));
    EXPECT_EQ(p1, p2);
    EXPECT_LT(util::max_abs_diff<double>(a1.view(), a2.view()), 1e-11)
        << "n=" << n;
  }
}

TEST(TrsmLowerUnit, SolvesAgainstRef) {
  const std::size_t n = 10, m = 6;
  Matrix<double> l(n, n), b(n, m), x(n, m);
  util::fill_hpl_matrix(l.view(), 7);
  for (std::size_t r = 0; r < n; ++r) {
    l(r, r) = 1.0;
    for (std::size_t c = r + 1; c < n; ++c) l(r, c) = 0.0;
  }
  util::fill_hpl_matrix(b.view(), 8);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < m; ++c) x(r, c) = b(r, c);
  trsm_left_lower_unit<double>(l.view(), x.view());
  // L * X must equal B.
  Matrix<double> lx(n, m);
  lx.fill(0);
  gemm_ref<double>(1.0, l.view(), x.view(), 0.0, lx.view());
  EXPECT_LT(util::max_abs_diff<double>(lx.view(), b.view()), 1e-12);
}

TEST(TrsmUpper, SolvesAgainstRef) {
  const std::size_t n = 9, m = 4;
  Matrix<double> u(n, n), b(n, m), x(n, m);
  util::fill_hpl_matrix(u.view(), 9);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < r; ++c) u(r, c) = 0.0;
    u(r, r) += 3.0;  // well conditioned
  }
  util::fill_hpl_matrix(b.view(), 10);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < m; ++c) x(r, c) = b(r, c);
  trsm_left_upper<double>(u.view(), x.view());
  Matrix<double> ux(n, m);
  ux.fill(0);
  gemm_ref<double>(1.0, u.view(), x.view(), 0.0, ux.view());
  EXPECT_LT(util::max_abs_diff<double>(ux.view(), b.view()), 1e-12);
}

TEST(LuSolve, RecoversKnownSolution) {
  const std::size_t n = 24;
  Matrix<double> a(n, n), lu(n, n);
  util::fill_hpl_matrix(a.view(), 11);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) lu(r, c) = a(r, c);
  // b = A * ones  =>  x == ones.
  std::vector<double> b(n, 0.0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) b[r] += a(r, c);
  std::vector<std::size_t> ipiv(n);
  ASSERT_TRUE(getrf_unblocked<double>(lu.view(), ipiv));
  lu_solve_vector<double>(lu.view(), ipiv, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], 1.0, 1e-9);
}

// Forward sweep of lu_solve_vector written as one ascending-j chain per
// row, solved row after row — the order the blocked sweep must reproduce.
template <class T>
void forward_sweep_reference(const Matrix<T>& lu, std::vector<T>& b) {
  for (std::size_t i = 1; i < b.size(); ++i) {
    T acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu(i, j) * b[j];
    b[i] = acc;
  }
}

template <class T>
void expect_forward_sweep_bitwise(std::size_t n) {
  // Identity pivots and a unit upper U (ones on the diagonal, zeros above)
  // make lu_solve_vector's swap and back substitution exact no-ops, so x is
  // the forward sweep's output alone.
  Matrix<T> lu(n, n);
  util::Rng rng(n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      lu(r, c) = c < r ? static_cast<T>(rng.next_centered())
                       : static_cast<T>(c == r ? 1 : 0);
  std::vector<std::size_t> ipiv(n);
  for (std::size_t i = 0; i < n; ++i) ipiv[i] = i;
  std::vector<T> x(n), want;
  for (auto& v : x) v = static_cast<T>(rng.next_centered());
  want = x;
  forward_sweep_reference<T>(lu, want);
  lu_solve_vector<T>(lu.view(), ipiv, x);
  EXPECT_EQ(std::memcmp(x.data(), want.data(), n * sizeof(T)), 0);
}

TEST(LuSolve, ForwardSweepIsTheSequentialChainBitwise) {
  // Sizes straddle the 8-row blocks: below, at and just past one block,
  // and several blocks with ragged tails.
  for (const std::size_t n : {1, 2, 7, 8, 9, 63, 64, 65, 257}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    expect_forward_sweep_bitwise<double>(n);
    expect_forward_sweep_bitwise<float>(n);
  }
}

}  // namespace
}  // namespace xphi::blas
