// Edge cases and equivalence contracts of the panel critical-path kernels
// (blas/lu_kernels.h): the iamax scan (ties, NaN, single rows), fused LASWP
// vs the sequential per-pivot sweep, the blocked TRSMs vs their scalar
// references, the trsm_left_upper singularity contract, and bitwise
// equality of the recursive panel factorization across pools, knobs and
// row strides (a strided panel is factored on a contiguous copy).
#include "blas/lu_kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "util/matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace xphi::blas {
namespace {

using util::Matrix;
using util::MatrixView;
using util::ThreadPool;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Tall single-column matrix, small random entries.
Matrix<double> column(std::size_t rows, std::uint64_t seed) {
  Matrix<double> a(rows, 1);
  util::Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) a(r, 0) = 0.1 * rng.next_centered();
  return a;
}

void copy(Matrix<double>& dst, const Matrix<double>& src) {
  for (std::size_t r = 0; r < src.rows(); ++r)
    for (std::size_t c = 0; c < src.cols(); ++c) dst(r, c) = src(r, c);
}

TEST(IamaxCol, TieKeepsLowestIndex) {
  auto a = column(1024, 1);
  a(100, 0) = -7.0;
  a(900, 0) = 7.0;  // same magnitude, higher index: must lose the tie
  MatrixView<const double> v(a.view());
  EXPECT_EQ(iamax_col<double>(v, 0, 0), 100u);
}

TEST(IamaxCol, InteriorNaNCannotMaskLaterValues) {
  auto a = column(1024, 2);
  a(5, 0) = kNaN;
  a(800, 0) = 9.0;
  MatrixView<const double> v(a.view());
  EXPECT_EQ(iamax_col<double>(v, 0, 0), 800u);
  a(5, 0) = 0.0;
  a(700, 0) = kNaN;
  EXPECT_EQ(iamax_col<double>(v, 0, 0), 800u);
}

TEST(IamaxCol, NaNAtFirstRowIsStickyLikeSerial) {
  // The LAPACK quirk: a NaN seed makes every comparison false, so row0 wins
  // regardless of later magnitudes.
  auto a = column(1024, 3);
  a(0, 0) = kNaN;
  a(512, 0) = 100.0;
  MatrixView<const double> v(a.view());
  EXPECT_EQ(iamax_col<double>(v, 0, 0), 0u);
}

TEST(IamaxCol, SingleRowPanel) {
  Matrix<double> a(1, 3);
  a(0, 0) = 4.0;
  a(0, 1) = 2.0;
  a(0, 2) = -3.0;
  MatrixView<const double> v(a.view());
  EXPECT_EQ(iamax_col<double>(v, 1, 0), 0u);
  // A 1-row panel factors too (no pivoting possible, pivot = row 0).
  std::vector<std::size_t> piv(3);
  EXPECT_TRUE(getrf_panel<double>(a.view(), piv));
  EXPECT_EQ(piv[0], 0u);
}

TEST(MakeSwapPlan, DropsSelfSwapsKeepsOrder) {
  const std::vector<std::size_t> ipiv{0, 5, 2, 7};  // 0 and 2 are self-swaps
  const SwapPlan plan =
      make_swap_plan(std::span<const std::size_t>(ipiv), 0, 4);
  ASSERT_EQ(plan.pairs.size(), 2u);
  EXPECT_EQ(plan.pairs[0], (std::pair<std::size_t, std::size_t>{1, 5}));
  EXPECT_EQ(plan.pairs[1], (std::pair<std::size_t, std::size_t>{3, 7}));
  const SwapPlan identity =
      make_swap_plan(std::span<const std::size_t>(ipiv), 0, 1);
  EXPECT_TRUE(identity.empty());
}

TEST(FusedLaswp, MatchesSequentialOnRandomPivotSequences) {
  constexpr std::size_t kRows = 300, kCols = 201, kPivots = 48;
  ThreadPool pool(3);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Matrix<double> ref(kRows, kCols);
    util::fill_hpl_matrix(ref.view(), seed);
    // Partial-pivoting-shaped sequence: step i swaps with a row >= i, with
    // self-swaps (ipiv[i] == i) forced in regularly.
    util::Rng rng(seed * 77);
    std::vector<std::size_t> ipiv(kPivots);
    for (std::size_t i = 0; i < kPivots; ++i)
      ipiv[i] = i % 5 == 0 ? i : i + rng.next_u64() % (kRows - i);
    Matrix<double> seq(kRows, kCols);
    copy(seq, ref);
    laswp<double>(seq.view(), std::span<const std::size_t>(ipiv), 0, kPivots);
    // Every chunking — serial, pooled, degenerate chunk sizes — is exactly
    // the same permutation.
    for (const std::size_t chunk : {std::size_t{0}, std::size_t{1},
                                    std::size_t{7}, std::size_t{64},
                                    std::size_t{1024}}) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        Matrix<double> fused(kRows, kCols);
        copy(fused, ref);
        laswp_fused<double>(fused.view(), std::span<const std::size_t>(ipiv),
                            0, kPivots, p, chunk);
        for (std::size_t r = 0; r < kRows; ++r)
          for (std::size_t c = 0; c < kCols; ++c)
            ASSERT_EQ(fused(r, c), seq(r, c))
                << "seed " << seed << " chunk " << chunk << " pooled "
                << (p != nullptr) << " at (" << r << "," << c << ")";
      }
    }
  }
}

TEST(TrsmUpper, SingularDiagonalRefusedAndRhsUntouched) {
  for (const std::size_t n : {std::size_t{8}, std::size_t{150}}) {
    Matrix<double> u(n, n);
    util::fill_hpl_matrix(u.view(), 9);
    for (std::size_t i = 0; i < n; ++i) u(i, i) = 1.0 + 0.01 * i;
    u(n / 2, n / 2) = 0.0;  // exact singularity mid-matrix
    Matrix<double> b(n, 5), b0(n, 5);
    util::fill_hpl_matrix(b.view(), 10);
    copy(b0, b);
    EXPECT_FALSE(
        trsm_left_upper<double>(MatrixView<const double>(u.view()), b.view()));
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < 5; ++c)
        ASSERT_EQ(b(r, c), b0(r, c)) << "rhs modified at (" << r << "," << c
                                     << ") despite singular U, n=" << n;
  }
}

TEST(TrsmUpper, BlockedSolveMatchesScalarReference) {
  // n large enough for several rank-4 groups plus remainders; diagonally
  // dominant U keeps the back substitution well conditioned.
  constexpr std::size_t kN = 150, kCols = 9;
  Matrix<double> u(kN, kN);
  util::fill_hpl_matrix(u.view(), 20);
  for (std::size_t i = 0; i < kN; ++i) {
    double row_sum = 0;
    for (std::size_t j = i + 1; j < kN; ++j) row_sum += std::abs(u(i, j));
    u(i, i) = row_sum + 1.0;
  }
  Matrix<double> b(kN, kCols), x_ref(kN, kCols);
  util::fill_hpl_matrix(b.view(), 21);
  copy(x_ref, b);
  trsm_left_upper_unblocked<double>(MatrixView<const double>(u.view()),
                                    x_ref.view());
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    Matrix<double> x(kN, kCols);
    copy(x, b);
    ASSERT_TRUE(trsm_left_upper<double>(MatrixView<const double>(u.view()),
                                        x.view(), p));
    for (std::size_t r = 0; r < kN; ++r)
      for (std::size_t c = 0; c < kCols; ++c)
        ASSERT_NEAR(x(r, c), x_ref(r, c), 1e-10);
  }
}

TEST(TrsmLowerUnit, BlockedSolveMatchesScalarReference) {
  constexpr std::size_t kN = 200, kCols = 33;
  Matrix<double> l(kN, kN);
  util::fill_hpl_matrix(l.view(), 30);
  for (std::size_t i = 0; i < kN; ++i)
    for (std::size_t j = 0; j < kN; ++j) l(i, j) *= 0.05;  // keep growth tame
  Matrix<double> b(kN, kCols), x_ref(kN, kCols);
  util::fill_hpl_matrix(b.view(), 31);
  copy(x_ref, b);
  trsm_left_lower_unit_unblocked<double>(MatrixView<const double>(l.view()),
                                         x_ref.view());
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    Matrix<double> x(kN, kCols);
    copy(x, b);
    trsm_left_lower_unit<double>(MatrixView<const double>(l.view()), x.view(),
                                 p);
    for (std::size_t r = 0; r < kN; ++r)
      for (std::size_t c = 0; c < kCols; ++c)
        ASSERT_NEAR(x(r, c), x_ref(r, c), 1e-10);
  }
}

TEST(GetrfPanel, PooledBitwiseMatchesSerialAcrossKnobs) {
  constexpr std::size_t kM = 640, kN = 64;
  Matrix<double> ref(kM, kN);
  util::fill_hpl_matrix(ref.view(), 50);
  Matrix<double> a1(kM, kN);
  copy(a1, ref);
  std::vector<std::size_t> p1(kN);
  ASSERT_TRUE(getrf_panel<double>(a1.view(), p1));
  ThreadPool pool(3);
  for (const std::size_t nb_min : {std::size_t{4}, std::size_t{8},
                                   std::size_t{32}}) {
    for (const std::size_t chunk : {std::size_t{0}, std::size_t{16}}) {
      Matrix<double> a2(kM, kN);
      copy(a2, ref);
      std::vector<std::size_t> p2(kN);
      PanelOptions opt;
      opt.nb_min = nb_min;
      opt.laswp_col_chunk = chunk;
      opt.pool = &pool;
      ASSERT_TRUE(getrf_panel<double>(a2.view(), p2, opt));
      EXPECT_EQ(p1, p2) << "nb_min " << nb_min << " chunk " << chunk;
      // The factors must agree to rounding across recursion cutoffs; with
      // the same cutoff (8) they are bitwise identical (the panel ignores
      // the pool and runs serially).
      for (std::size_t r = 0; r < kM; ++r)
        for (std::size_t c = 0; c < kN; ++c) {
          if (nb_min == 8) {
            ASSERT_EQ(a1(r, c), a2(r, c))
                << "nb_min " << nb_min << " (" << r << "," << c << ")";
          } else {
            ASSERT_NEAR(a1(r, c), a2(r, c), 1e-9)
                << "nb_min " << nb_min << " (" << r << "," << c << ")";
          }
        }
    }
  }
}

TEST(GetrfPanel, PivotSequenceMatchesUnblockedReference) {
  constexpr std::size_t kM = 260, kN = 48;
  Matrix<double> a_ref(kM, kN), a_rec(kM, kN);
  util::fill_hpl_matrix(a_ref.view(), 60);
  copy(a_rec, a_ref);
  std::vector<std::size_t> p_ref(kN), p_rec(kN);
  ASSERT_TRUE(getrf_unblocked<double>(a_ref.view(), p_ref));
  ASSERT_TRUE(getrf_panel<double>(a_rec.view(), p_rec));
  EXPECT_EQ(p_ref, p_rec);
  for (std::size_t r = 0; r < kM; ++r)
    for (std::size_t c = 0; c < kN; ++c)
      ASSERT_NEAR(a_ref(r, c), a_rec(r, c), 1e-10);
}

/// Bitwise equality that also holds for NaN entries.
template <class T>
bool same_bits(T x, T y) {
  return std::memcmp(&x, &y, sizeof(T)) == 0;
}

/// Factors the same m x pw panel three ways and requires the same return
/// value, pivots and bits from each: getrf_panel on a panel carved out of a
/// matrix with a power-of-two ld (the contiguous-copy path), the serial
/// recursion in place on that strided view, and getrf_panel on the panel as
/// a contiguous matrix of its own. `shape` edits the panel before factoring.
/// Columns of the wide matrix outside the panel must come back untouched.
template <class T, class Shape>
void expect_strided_matches_contiguous(std::size_t m, std::size_t pw,
                                       bool expect_ok, Shape shape,
                                       const char* what) {
  constexpr std::size_t kLd = 2048, kR0 = 3, kC0 = 128;
  Matrix<T> src(m, pw);
  util::fill_hpl_matrix(src.view(), 70 + pw);
  shape(src.view());

  Matrix<T> contig(m, pw);
  std::vector<std::size_t> p_contig(pw, 9999);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < pw; ++c) contig(r, c) = src(r, c);
  const bool ok_contig = getrf_panel<T>(contig.view(), p_contig);
  EXPECT_EQ(ok_contig, expect_ok) << what;

  for (const bool in_place : {false, true}) {
    Matrix<T> wide(kR0 + m, kLd);
    util::fill_hpl_matrix(wide.view(), 11);
    Matrix<T> wide0(kR0 + m, kLd);
    for (std::size_t r = 0; r < kR0 + m; ++r)
      for (std::size_t c = 0; c < kLd; ++c) wide0(r, c) = wide(r, c);
    auto panel = wide.view().block(kR0, kC0, m, pw);
    for (std::size_t r = 0; r < m; ++r)
      for (std::size_t c = 0; c < pw; ++c) panel(r, c) = src(r, c);
    std::vector<std::size_t> piv(pw, 9999);
    const bool ok = in_place ? detail::getrf_panel_rec<T>(panel, piv, {})
                             : getrf_panel<T>(panel, piv);
    EXPECT_EQ(ok, ok_contig) << what << " in_place " << in_place;
    EXPECT_EQ(piv, p_contig) << what << " in_place " << in_place;
    for (std::size_t r = 0; r < kR0 + m; ++r)
      for (std::size_t c = 0; c < kLd; ++c) {
        const bool inside = r >= kR0 && c >= kC0 && c < kC0 + pw;
        const T want = inside ? contig(r - kR0, c - kC0) : wide0(r, c);
        ASSERT_TRUE(same_bits(wide(r, c), want))
            << what << " in_place " << in_place << " at (" << r << "," << c
            << "): " << wide(r, c) << " vs " << want;
      }
  }
}

template <class T>
void strided_panel_cases() {
  const T nan = std::numeric_limits<T>::quiet_NaN();
  for (const std::size_t pw : {std::size_t{64}, std::size_t{5}}) {
    const std::size_t m = 300;
    expect_strided_matches_contiguous<T>(
        m, pw, true, [](MatrixView<T>) {}, "random");
    expect_strided_matches_contiguous<T>(
        m, pw, true,
        [](MatrixView<T> a) {
          a(40, 0) = T{-9};  // tie on column 0: row 40 must win over 250
          a(250, 0) = T{9};
          a(7, 1) = T{8};  // and on column 1 among the remaining rows
          a(90, 1) = T{-8};
        },
        "ties");
    expect_strided_matches_contiguous<T>(
        m, pw, true, [&](MatrixView<T> a) { a(0, 0) = nan; },
        "NaN in the first row");
    expect_strided_matches_contiguous<T>(
        m, pw, true, [&](MatrixView<T> a) { a(150, 3) = nan; },
        "interior NaN");
    expect_strided_matches_contiguous<T>(
        m, pw, false,
        [&](MatrixView<T> a) {
          for (std::size_t r = 0; r < a.rows(); ++r) a(r, pw - 2) = T{};
        },
        "singular column");
  }
}

TEST(GetrfPanel, StridedViewMatchesContiguousBitwise) {
  strided_panel_cases<double>();
  strided_panel_cases<float>();
}

}  // namespace
}  // namespace xphi::blas
