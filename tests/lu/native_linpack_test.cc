// Native Linpack end to end, the way bench_fig6_native_linpack and the
// quickstart run it: a residual-checked functional DAG factorization at a
// small size plus the Knights Corner projection at paper scale.
#include <gtest/gtest.h>

#include "lu/functional.h"
#include "lu/sim_scheduler.h"
#include "sim/lu_model.h"

namespace xphi::lu {
namespace {

NativeLuConfig projection(std::size_t n, bool capture_timeline = false) {
  NativeLuConfig cfg;
  cfg.n = n;
  cfg.nb = 240;  // paper panel width
  cfg.capture_timeline = capture_timeline;
  return cfg;
}

NativeLuResult project_dynamic(const NativeLuConfig& cfg) {
  const sim::KncLuModel model;
  const auto plan =
      model_tuned_plan(model, cfg.n, cfg.nb, model.spec().compute_cores());
  return simulate_dynamic_lu(cfg, model, plan);
}

TEST(NativeLinpack, EndToEndDynamic) {
  const auto functional = run_functional_dag_lu(160, 32, 3);
  EXPECT_TRUE(functional.ok);
  EXPECT_NEAR(project_dynamic(projection(30000)).efficiency, 0.79, 0.03);
  // The functional factor is timed and its panel packs are cache-shared
  // across that stage's update tasks.
  EXPECT_GT(functional.factor_seconds, 0.0);
  EXPECT_GE(functional.pack.pack_hits + functional.pack.pack_misses, 1u);
}

TEST(NativeLinpack, StaticSchedulerSelectable) {
  const auto functional = run_functional_dag_lu(96, 240, 4);
  EXPECT_TRUE(functional.ok);
  const auto projected =
      simulate_static_lookahead_lu(projection(30000), sim::KncLuModel{});
  EXPECT_GT(projected.gflops, 700.0);
}

TEST(NativeLinpack, TimelineOnRequest) {
  const auto projected = project_dynamic(projection(5000, true));
  EXPECT_FALSE(projected.timeline.spans().empty());
}

}  // namespace
}  // namespace xphi::lu
