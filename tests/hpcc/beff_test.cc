// b_eff: sweep shape, transport verification, and the analytic net-knob
// seeding from synthetic and measured probe tables.
#include <gtest/gtest.h>

#include "hpcc/beff.h"

namespace xphi {
namespace {

using hpcc::BeffOptions;
using hpcc::BeffResult;
using hpcc::CollectiveProbe;
using hpcc::NetKnobsSeed;
using hpcc::run_beff;
using hpcc::seed_net_knobs;

BeffOptions small_options() {
  BeffOptions opt;
  opt.ranks = 4;
  opt.sizes_doubles = {1, 64, 1024};
  opt.reps = 2;
  opt.random_pairings = 2;
  return opt;
}

TEST(Beff, SweepShapeAndGates) {
  const BeffResult r = run_beff(small_options());
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.cells.size(), 3u);
  ASSERT_EQ(r.probes.size(), 3u);
  EXPECT_GT(r.beff_gbs, 0.0);
  for (const auto& cell : r.cells) {
    EXPECT_GT(cell.ring_gbs, 0.0);
    EXPECT_GT(cell.random_gbs, 0.0);
    EXPECT_GT(cell.ring_us, 0.0);
    EXPECT_GT(cell.random_us, 0.0);
  }
  for (const auto& probe : r.probes) {
    EXPECT_GT(probe.tree_seconds, 0.0);
    EXPECT_GT(probe.ring_seconds, 0.0);
    EXPECT_NE(probe.best_segment, 0u);
  }
}

TEST(Beff, OddRankCountAndNoProbe) {
  BeffOptions opt = small_options();
  opt.ranks = 3;  // one rank sits out each random pairing
  opt.probe_collectives = false;
  const BeffResult r = run_beff(opt);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.probes.empty());
}

TEST(Beff, SeedFromSyntheticProbes) {
  // Tree wins at 64, ring wins at 4096: crossover = the largest tree win,
  // segment = the winner at the largest size.
  const std::vector<CollectiveProbe> probes{
      {.size_doubles = 64, .tree_seconds = 1e-3, .ring_seconds = 2e-3,
       .best_segment = 128},
      {.size_doubles = 4096, .tree_seconds = 3e-3, .ring_seconds = 1e-3,
       .best_segment = 512},
  };
  const NetKnobsSeed seed = seed_net_knobs(probes);
  EXPECT_EQ(seed.crossover_doubles, 64u);
  EXPECT_EQ(seed.ring_segment, 512u);
}

TEST(Beff, SeedFallsBackWhenRingNeverWins) {
  const std::vector<CollectiveProbe> probes{
      {.size_doubles = 64, .tree_seconds = 1e-3, .ring_seconds = 2e-3,
       .best_segment = 128},
      {.size_doubles = 4096, .tree_seconds = 1e-3, .ring_seconds = 2e-3,
       .best_segment = 128},
  };
  const NetKnobsSeed seed = seed_net_knobs(probes);
  EXPECT_EQ(seed.crossover_doubles, 1024u);  // the World defaults
  EXPECT_EQ(seed.ring_segment, 1024u);
  const NetKnobsSeed empty = seed_net_knobs({});
  EXPECT_EQ(empty.crossover_doubles, 1024u);
  EXPECT_EQ(empty.ring_segment, 1024u);
}

TEST(Beff, SeedAlwaysRingMeansZeroCrossover) {
  const std::vector<CollectiveProbe> probes{
      {.size_doubles = 64, .tree_seconds = 2e-3, .ring_seconds = 1e-3,
       .best_segment = 4096},
  };
  const NetKnobsSeed seed = seed_net_knobs(probes);
  EXPECT_EQ(seed.crossover_doubles, 0u);  // always-ring per World semantics
  EXPECT_EQ(seed.ring_segment, 4096u);
}

}  // namespace
}  // namespace xphi
