#include "sim/machine.h"

#include <gtest/gtest.h>

namespace xphi::sim {
namespace {

// Table I anchors.
TEST(Machine, KnightsCornerMatchesTableI) {
  const MachineSpec m = MachineSpec::knights_corner();
  EXPECT_EQ(m.total_cores(), 61);
  EXPECT_EQ(m.threads_per_core, 4);
  EXPECT_EQ(m.total_threads(), 244);
  EXPECT_NEAR(m.peak_gflops(Precision::kDouble), 1074.0, 1.0);
  EXPECT_NEAR(m.peak_gflops(Precision::kSingle), 2148.0, 2.0);
  EXPECT_EQ(m.l2_bytes, 512u * 1024u);
  EXPECT_EQ(m.dram_bytes, 8ull << 30);
  EXPECT_DOUBLE_EQ(m.stream_bw_gbs, 150.0);
}

TEST(Machine, KnightsCornerReservesOsCore) {
  const MachineSpec m = MachineSpec::knights_corner();
  EXPECT_EQ(m.compute_cores(), 60);
  // Native peak is quoted against 60 cores: 60 * 1.1 * 16 = 1056.
  EXPECT_NEAR(m.native_peak_gflops(), 1056.0, 0.5);
}

TEST(Machine, SandyBridgeMatchesTableI) {
  const MachineSpec m = MachineSpec::sandy_bridge_ep();
  EXPECT_EQ(m.total_cores(), 16);
  EXPECT_EQ(m.total_threads(), 32);
  EXPECT_NEAR(m.peak_gflops(Precision::kDouble), 333.0, 1.0);
  EXPECT_NEAR(m.peak_gflops(Precision::kSingle), 666.0, 1.0);
  EXPECT_EQ(m.compute_cores(), 16);
  EXPECT_DOUBLE_EQ(m.stream_bw_gbs, 76.0);
}

TEST(Machine, KncToSnbFlopRatioIsAboutSixForTwoCards) {
  // Paper Section V-A: "two Knights Corner cards can deliver roughly six
  // times the flops compared to Sandy Bridge EP".
  const double knc = MachineSpec::knights_corner().peak_gflops();
  const double snb = MachineSpec::sandy_bridge_ep().peak_gflops();
  EXPECT_NEAR(2.0 * knc / snb, 6.45, 0.2);
}

TEST(Machine, CycleSeconds) {
  const MachineSpec m = MachineSpec::knights_corner();
  EXPECT_NEAR(m.cycle_seconds(), 1.0 / 1.1e9, 1e-15);
}

TEST(Machine, PartialCorePeak) {
  const MachineSpec m = MachineSpec::knights_corner();
  EXPECT_NEAR(m.peak_gflops(Precision::kDouble, 1), 17.6, 0.01);
}

}  // namespace
}  // namespace xphi::sim
