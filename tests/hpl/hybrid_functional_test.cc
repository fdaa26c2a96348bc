// The single-node functional hybrid HPL: the distributed driver on a 1x1
// grid with the offload engine doing every trailing update (card threads,
// request/response queues, two-ended work stealing), under the paper's three
// look-ahead schemes (Figure 8).
#include <gtest/gtest.h>

#include <vector>

#include "blas/getrf.h"
#include "blas/residual.h"
#include "hpl/distributed.h"
#include "util/rng.h"

namespace xphi::hpl {
namespace {

DistributedHplOptions offload_options(Lookahead scheme) {
  DistributedHplOptions opt;
  opt.use_offload_engine = true;
  opt.lookahead = scheme;
  return opt;
}

DistributedHplResult run_single_node(std::size_t n, std::size_t nb,
                                     const DistributedHplOptions& opt,
                                     std::uint64_t seed = 42) {
  return run_distributed_hpl(n, nb, Grid{1, 1}, seed, opt);
}

TEST(HybridFunctional, LookaheadPassesResidual) {
  auto opt = offload_options(Lookahead::kBasic);
  opt.offload.mt = 48;
  opt.offload.nt = 48;
  const auto res = run_single_node(192, 32, opt);
  EXPECT_TRUE(res.ok);
  EXPECT_LT(res.residual, blas::kHplResidualThreshold);
}

TEST(HybridFunctional, NoLookaheadPassesResidual) {
  const auto res = run_single_node(160, 32, offload_options(Lookahead::kNone));
  EXPECT_TRUE(res.ok);
  EXPECT_LT(res.residual, blas::kHplResidualThreshold);
}

TEST(HybridFunctional, AllThreeSchemesAgreeExactly) {
  // Figure 8's three schemes reorder work, not arithmetic: identical
  // residuals and pivots for the same seed.
  const auto ra = run_single_node(128, 16, offload_options(Lookahead::kBasic), 9);
  const auto rb = run_single_node(128, 16, offload_options(Lookahead::kNone), 9);
  const auto rc =
      run_single_node(128, 16, offload_options(Lookahead::kPipelined), 9);
  ASSERT_TRUE(ra.ok && rb.ok && rc.ok);
  EXPECT_DOUBLE_EQ(ra.residual, rb.residual);
  EXPECT_DOUBLE_EQ(ra.residual, rc.residual);
  EXPECT_EQ(ra.ipiv, rb.ipiv);
  EXPECT_EQ(ra.ipiv, rc.ipiv);
}

TEST(HybridFunctional, PipelinedSubsetCountScales) {
  // The subset count only splits the trailing update into more GEMM calls.
  auto opt = offload_options(Lookahead::kPipelined);
  opt.pipeline_subsets = 2;
  const auto coarse = run_single_node(192, 32, opt, 5);
  opt.pipeline_subsets = 8;
  const auto fine = run_single_node(192, 32, opt, 5);
  ASSERT_TRUE(coarse.ok && fine.ok);
  EXPECT_DOUBLE_EQ(coarse.residual, fine.residual);
  EXPECT_EQ(util::max_abs_diff<double>(coarse.factored.view(),
                                       fine.factored.view()),
            0.0);
}

TEST(HybridFunctional, TwoCardsAndHostStealing) {
  auto opt = offload_options(Lookahead::kBasic);
  opt.offload.cards = 2;
  opt.offload.host_steals = true;
  opt.offload.mt = 40;
  opt.offload.nt = 40;
  const auto res = run_single_node(200, 40, opt);
  EXPECT_TRUE(res.ok);
}

TEST(HybridFunctional, RaggedPanelWidth) {
  // n not a multiple of nb.
  const auto res = run_single_node(150, 32, offload_options(Lookahead::kBasic));
  EXPECT_TRUE(res.ok);
}

TEST(HybridFunctional, MatchesSequentialFactorizationResidualScale) {
  // Compare against the plain blocked factorization on the same system: both
  // are backward-stable, so residuals should be the same order of magnitude.
  // The offload engine changes no accumulation order, so the factors also
  // match bit for bit.
  const std::size_t n = 144, nb = 24;
  const auto hybrid = run_single_node(n, nb, offload_options(Lookahead::kBasic), 21);

  util::Matrix<double> a(n, n), orig(n, n);
  util::fill_hpl_matrix(a.view(), 21);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) orig(r, c) = a(r, c);
  std::vector<std::size_t> ipiv(n);
  ASSERT_TRUE(blas::getrf_blocked<double>(a.view(), ipiv, nb));
  std::vector<double> b(n), x(n);
  util::Rng rng(21 ^ 0xb0b);
  for (auto& v : b) v = rng.next_centered();
  x = b;
  blas::lu_solve_vector<double>(a.view(), ipiv, x);
  const double seq_res = blas::hpl_residual<double>(orig.view(), x, b);
  ASSERT_TRUE(hybrid.ok);
  EXPECT_LT(hybrid.residual, seq_res * 50 + 1.0);
  EXPECT_EQ(hybrid.ipiv, ipiv);
  EXPECT_EQ(util::max_abs_diff<double>(hybrid.factored.view(), a.view()), 0.0);
}

}  // namespace
}  // namespace xphi::hpl
