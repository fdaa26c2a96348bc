#include "core/offload_functional.h"

#include <gtest/gtest.h>

#include <vector>

#include "blas/gemm_ref.h"
#include "blas/getrf.h"
#include "util/rng.h"

namespace xphi::core {
namespace {

using util::Matrix;

void expect_offload_matches_ref(std::size_t m, std::size_t n, std::size_t k,
                                const FunctionalOffloadConfig& cfg,
                                FunctionalOffloadStats* stats_out = nullptr) {
  Matrix<double> a(m, k), b(k, n), c(m, n), c_ref(m, n);
  util::fill_hpl_matrix(a.view(), 1);
  util::fill_hpl_matrix(b.view(), 2);
  util::fill_hpl_matrix(c.view(), 3);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t cc = 0; cc < n; ++cc) c_ref(r, cc) = c(r, cc);
  blas::gemm_ref<double>(-1.0, a.view(), b.view(), 1.0, c_ref.view());
  const auto stats =
      offload_gemm_functional(-1.0, a.view(), b.view(), c.view(), cfg);
  EXPECT_LT(util::max_abs_diff<double>(c.view(), c_ref.view()), 1e-10);
  EXPECT_EQ(stats.tiles_cards + stats.tiles_host, stats.tiles_total);
  if (stats_out != nullptr) *stats_out = stats;
}

TEST(OffloadFunctional, SingleCardNoHost) {
  FunctionalOffloadConfig cfg;
  cfg.cards = 1;
  cfg.host_steals = false;
  FunctionalOffloadStats stats;
  expect_offload_matches_ref(128, 128, 48, cfg, &stats);
  EXPECT_EQ(stats.tiles_host, 0u);
  EXPECT_EQ(stats.tiles_cards, stats.tiles_total);
}

TEST(OffloadFunctional, HostStealsFromTheBack) {
  FunctionalOffloadConfig cfg;
  cfg.cards = 1;
  cfg.host_steals = true;
  FunctionalOffloadStats stats;
  expect_offload_matches_ref(192, 192, 32, cfg, &stats);
  EXPECT_GT(stats.tiles_total, 0u);
}

TEST(OffloadFunctional, TwoCards) {
  FunctionalOffloadConfig cfg;
  cfg.cards = 2;
  cfg.host_steals = false;
  expect_offload_matches_ref(160, 160, 40, cfg);
}

TEST(OffloadFunctional, RaggedShapeWithMergedTiles) {
  FunctionalOffloadConfig cfg;
  cfg.mt = 50;
  cfg.nt = 70;
  cfg.cards = 1;
  cfg.host_steals = true;
  FunctionalOffloadStats stats;
  expect_offload_matches_ref(173, 141, 29, cfg, &stats);
  // 173/50 -> 3 row tiles (last merged), 141/70 -> 2 col tiles.
  EXPECT_EQ(stats.tiles_total, 6u);
}

TEST(OffloadFunctional, TinyMatrixSingleTile) {
  FunctionalOffloadConfig cfg;
  cfg.mt = 64;
  cfg.nt = 64;
  FunctionalOffloadStats stats;
  expect_offload_matches_ref(10, 12, 8, cfg, &stats);
  EXPECT_EQ(stats.tiles_total, 1u);
}

TEST(OffloadFunctional, AlphaPlusOne) {
  Matrix<double> a(96, 16), b(16, 96), c(96, 96), c_ref(96, 96);
  util::fill_hpl_matrix(a.view(), 7);
  util::fill_hpl_matrix(b.view(), 8);
  c.fill(1.0);
  c_ref.fill(1.0);
  blas::gemm_ref<double>(2.0, a.view(), b.view(), 1.0, c_ref.view());
  offload_gemm_functional(2.0, a.view(), b.view(), c.view(), {});
  EXPECT_LT(util::max_abs_diff<double>(c.view(), c_ref.view()), 1e-11);
}

TEST(OffloadFunctional, RepeatedRunsDeterministicResult) {
  Matrix<double> a(100, 20), b(20, 100), c1(100, 100), c2(100, 100);
  util::fill_hpl_matrix(a.view(), 4);
  util::fill_hpl_matrix(b.view(), 5);
  c1.fill(0.0);
  c2.fill(0.0);
  FunctionalOffloadConfig cfg;
  cfg.cards = 2;
  cfg.host_steals = true;
  offload_gemm_functional(1.0, a.view(), b.view(), c1.view(), cfg);
  offload_gemm_functional(1.0, a.view(), b.view(), c2.view(), cfg);
  EXPECT_EQ(util::max_abs_diff<double>(c1.view(), c2.view()), 0.0);
}

TEST(OffloadFunctional, PinnedKernelMatchesDefaultBitwise) {
  // The engine packs its A/B panels at the pinned kernel's geometry (28-,
  // 30- and 32-row tiles, 6/8/12-wide), so the cards run that kernel; the
  // shape is bitwise-neutral, so every pin reproduces the auto-dispatched
  // run exactly, ragged edge tiles and host-stolen tiles included.
  const std::size_t m = 157, n = 131, k = 37;
  Matrix<double> a(m, k), b(k, n), want(m, n);
  util::fill_hpl_matrix(a.view(), 21);
  util::fill_hpl_matrix(b.view(), 22);
  util::fill_hpl_matrix(want.view(), 23);
  FunctionalOffloadConfig cfg;
  cfg.cards = 2;
  cfg.host_steals = true;
  cfg.mt = 60;
  cfg.nt = 50;
  offload_gemm_functional(-1.0, a.view(), b.view(), want.view(), cfg);
  for (const int kernel : {308, 408, 412, 808, 416}) {
    SCOPED_TRACE(::testing::Message() << "microkernel=" << kernel);
    Matrix<double> c(m, n);
    util::fill_hpl_matrix(c.view(), 23);
    cfg.microkernel = kernel;
    const auto stats =
        offload_gemm_functional(-1.0, a.view(), b.view(), c.view(), cfg);
    EXPECT_EQ(stats.tiles_cards + stats.tiles_host, stats.tiles_total);
    EXPECT_EQ(util::max_abs_diff<double>(c.view(), want.view()), 0.0);
  }
}

TEST(OffloadFunctional, GetrfBlockedOffloadUpdateMatchesDefault) {
  // getrf_blocked's trailing-update seam: routing every stage's update
  // through the offload engine (queues + card threads + stealing) must pick
  // the same pivots as the pooled gemm_tiled default and factor to
  // roundoff.
  const std::size_t n = 96, nb = 16;
  Matrix<double> plain(n, n), offload(n, n);
  util::fill_hpl_matrix(plain.view(), 61);
  util::fill_hpl_matrix(offload.view(), 61);
  std::vector<std::size_t> p_plain(n), p_offload(n);
  FunctionalOffloadConfig cfg;
  cfg.mt = 24;
  cfg.nt = 24;
  cfg.host_steals = true;
  ASSERT_TRUE(blas::getrf_blocked<double>(plain.view(), p_plain, nb));
  ASSERT_TRUE(blas::getrf_blocked<double>(
      offload.view(), p_offload, nb, nullptr, {},
      [&](util::MatrixView<const double> l21,
          util::MatrixView<const double> u12, util::MatrixView<double> a22,
          const blas::PanelOptions&) {
        offload_gemm_functional(-1.0, l21, u12, a22, cfg);
      }));
  EXPECT_EQ(p_offload, p_plain);
  EXPECT_LT(util::max_abs_diff<double>(offload.view(), plain.view()), 1e-11);
}


TEST(Consumers, TuningChangesSpeedNeverResults) {
  // The tile size is a speed knob: a non-default Mt x Nt must produce the
  // identical C as the 64x64 default, bit for bit, with two cards and the
  // host stealing.
  constexpr std::size_t m = 96, n = 96, k = 24;
  Matrix<double> a(m, k), b(k, n), c_default(m, n), c_tuned(m, n);
  util::fill_hpl_matrix(a.view(), 1);
  util::fill_hpl_matrix(b.view(), 2);
  util::fill_hpl_matrix(c_default.view(), 3);
  util::fill_hpl_matrix(c_tuned.view(), 3);

  FunctionalOffloadConfig cfg;
  cfg.cards = 2;
  cfg.host_steals = true;
  offload_gemm_functional(-1.0, a.view(), b.view(), c_default.view(), cfg);

  cfg.mt = 24;
  cfg.nt = 40;
  offload_gemm_functional(-1.0, a.view(), b.view(), c_tuned.view(), cfg);

  EXPECT_EQ(util::max_abs_diff<double>(c_tuned.view(), c_default.view()), 0.0);
}

}  // namespace
}  // namespace xphi::core
