#include "core/offload_dgemm.h"

#include <gtest/gtest.h>

namespace xphi::core {
namespace {

class OffloadTest : public ::testing::Test {
 protected:
  sim::KncGemmModel knc_;
  sim::SnbModel snb_;
  pci::PcieLink link_;

  OffloadDgemmResult run(std::size_t n, int cards,
                         bool host_steals = false) {
    OffloadDgemmConfig cfg;
    cfg.m = cfg.n = n;
    cfg.cards = cards;
    cfg.host_steals = host_steals;
    cfg.host_compute_cores = host_steals ? 13 : 0;
    return simulate_offload_dgemm(cfg, knc_, snb_, link_);
  }
};

// Figure 11a anchor: ~917 GFLOPS = 85.4% at 82K with one card.
TEST_F(OffloadTest, Fig11aSingleCardAnchor) {
  const auto r = run(82000, 1);
  EXPECT_NEAR(r.gflops, 917.0, 15.0);
  EXPECT_NEAR(r.efficiency, 0.854, 0.012);
}

// Figure 11b anchor: ~1785 GFLOPS = 83% peak with two cards.
TEST_F(OffloadTest, Fig11bDualCardAnchor) {
  const auto r = run(82000, 2);
  EXPECT_NEAR(r.gflops, 1785.0, 30.0);
  EXPECT_NEAR(r.efficiency, 0.831, 0.012);
}

// Figure 11a: efficiency degrades slowly with decreasing size for one card.
TEST_F(OffloadTest, SingleCardEfficiencyDecaysSlowly) {
  const double e82 = run(82000, 1).efficiency;
  const double e41 = run(41000, 1).efficiency;
  const double e10 = run(10000, 1).efficiency;
  EXPECT_GT(e82, e41);
  EXPECT_GT(e41, e10);
  EXPECT_GT(e41, e82 - 0.03);  // slow decay over a 2x size change
}

// Figure 11b: the dual-card system decays faster (each card sees half the
// problem, so first/last tile processing weighs more).
TEST_F(OffloadTest, DualCardDecaysFaster) {
  const double drop1 = run(82000, 1).efficiency - run(10000, 1).efficiency;
  const double drop2 = run(82000, 2).efficiency - run(10000, 2).efficiency;
  EXPECT_GT(drop2, drop1);
}

TEST_F(OffloadTest, HostStealingAddsThroughput) {
  const auto alone = run(41000, 1, false);
  const auto helped = run(41000, 1, true);
  EXPECT_LT(helped.seconds, alone.seconds);
  EXPECT_GT(helped.tiles_host, 0u);
}

TEST_F(OffloadTest, DynamicStealingBeatsStaticSplit) {
  OffloadDgemmConfig cfg;
  cfg.m = cfg.n = 41000;
  cfg.cards = 1;
  cfg.host_steals = true;
  cfg.host_compute_cores = 13;
  const auto dynamic = simulate_offload_dgemm(cfg, knc_, snb_, link_);
  cfg.dynamic_stealing = false;
  const auto fixed = simulate_offload_dgemm(cfg, knc_, snb_, link_);
  EXPECT_LE(dynamic.seconds, fixed.seconds * 1.02);
}

TEST_F(OffloadTest, KtRuleMatchesPaper) {
  // Paper Section V-B: Kt > 4 * 950 GFLOPS / 4 GB/s = 950.
  EXPECT_NEAR(link_.min_kt(950.0), 950.0, 1.0);
  // Kt = 1200 satisfies the bound for the achieved DGEMM rate.
  EXPECT_GT(1200.0, link_.min_kt(944.0 * 4.0 / 4.0) * 0.9);
}

TEST_F(OffloadTest, TunerPrefersLargerTilesForLargerMatrices) {
  const auto small = tune_tile_size(10000, 10000, 1200, knc_, link_);
  const auto large = tune_tile_size(82000, 82000, 1200, knc_, link_);
  EXPECT_GE(large.first * large.second, small.first * small.second);
}

TEST_F(OffloadTest, ExplicitTileSizeIsHonored) {
  OffloadDgemmConfig cfg;
  cfg.m = cfg.n = 20000;
  cfg.mt = 2400;
  cfg.nt = 3600;
  const auto r = simulate_offload_dgemm(cfg, knc_, snb_, link_);
  EXPECT_EQ(r.mt, 2400u);
  EXPECT_EQ(r.nt, 3600u);
}

TEST_F(OffloadTest, DegenerateInputs) {
  OffloadDgemmConfig cfg;
  cfg.m = 0;
  cfg.n = 100;
  const auto r = simulate_offload_dgemm(cfg, knc_, snb_, link_);
  EXPECT_EQ(r.seconds, 0.0);
}

TEST_F(OffloadTest, UncontendedLinkIsFaster) {
  OffloadDgemmConfig cfg;
  cfg.m = cfg.n = 20000;
  cfg.mt = cfg.nt = 2400;  // transfer-heavy tiles
  const auto contended = simulate_offload_dgemm(cfg, knc_, snb_, link_);
  cfg.contended_pcie = false;
  const auto free_link = simulate_offload_dgemm(cfg, knc_, snb_, link_);
  EXPECT_LE(free_link.seconds, contended.seconds);
}

}  // namespace
}  // namespace xphi::core
