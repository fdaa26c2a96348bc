#include "lu/functional.h"

#include <gtest/gtest.h>

#include <vector>

#include "blas/getrf.h"
#include "blas/residual.h"
#include "util/rng.h"

namespace xphi::lu {
namespace {

template <class T>
void expect_dag_matches_blocked(std::size_t n, std::size_t nb, int workers,
                                int microkernel) {
  util::Matrix<T> a1(n, n), a2(n, n);
  util::fill_hpl_matrix(a1.view(), 9);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a2(r, c) = a1(r, c);
  std::vector<std::size_t> p1(n), p2(n);
  ASSERT_TRUE(blas::getrf_blocked<T>(a1.view(), p1, nb));
  blas::PanelOptions panel;
  panel.microkernel = microkernel;
  ASSERT_TRUE(dag_lu_factor_t<T>(a2.view(), p2, nb, workers, nullptr, panel));
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(util::max_abs_diff<T>(a1.view(), a2.view()), 0.0);
}

TEST(DagLuFactor, MatchesSequentialBlockedFactorization) {
  // Both drivers run the same stage primitives, so the DAG's reordering
  // must reproduce the blocked oracle bit for bit — ragged last panels,
  // nb > n and the 1x1 matrix included, on one worker and on four. The
  // update packs at the pinned kernel's geometry (30-, 28- and 32-row
  // tiles), and kernel shape is bitwise-neutral, so every pin matches the
  // auto-dispatched oracle.
  struct Shape { std::size_t n, nb; };
  for (const Shape& sh :
       {Shape{96, 24}, Shape{70, 12}, Shape{10, 16}, Shape{1, 8},
        Shape{130, 32}}) {
    for (const int workers : {1, 4}) {
      for (const int kernel : {0, 308, 408, 412, 808, 416}) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << sh.n << " nb=" << sh.nb
                     << " workers=" << workers << " microkernel=" << kernel);
        expect_dag_matches_blocked<double>(sh.n, sh.nb, workers, kernel);
        expect_dag_matches_blocked<float>(sh.n, sh.nb, workers, kernel);
      }
    }
  }
}

TEST(DagLuFactor, MultiWorkerMatchesSingleWorker) {
  const std::size_t n = 120, nb = 30;
  util::Matrix<double> a1(n, n), a2(n, n);
  util::fill_hpl_matrix(a1.view(), 17);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) a2(r, c) = a1(r, c);
  std::vector<std::size_t> p1(n), p2(n);
  ASSERT_TRUE(dag_lu_factor(a1.view(), p1, nb, 1));
  ASSERT_TRUE(dag_lu_factor(a2.view(), p2, nb, 4));
  EXPECT_EQ(p1, p2);
  // Dynamic scheduling changes execution order, not results: the DAG is
  // bitwise by contract, whichever worker packs or updates what.
  EXPECT_EQ(util::max_abs_diff<double>(a1.view(), a2.view()), 0.0);
}

TEST(FunctionalDagLu, PanelTaskPacksItsStage) {
  // Each stage with a trailing block packs its L21 once, in its panel task;
  // every update task of the stage then hits that pack.
  struct Shape { std::size_t n, nb; };
  for (const Shape& sh : {Shape{150, 32}, Shape{130, 28}}) {
    const std::size_t panels = (sh.n + sh.nb - 1) / sh.nb;
    const std::size_t packed_stages = panels - 1;
    const std::size_t update_tasks = panels * (panels - 1) / 2;
    for (const int workers : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << "n=" << sh.n << " nb=" << sh.nb
                                        << " workers=" << workers);
      util::Matrix<double> a(sh.n, sh.n);
      util::fill_hpl_matrix(a.view(), 5);
      std::vector<std::size_t> ipiv(sh.n);
      DagLuPackStats stats;
      ASSERT_TRUE(dag_lu_factor(a.view(), ipiv, sh.nb, workers, &stats));
      if (workers == 1) {
        EXPECT_EQ(stats.pack_misses, packed_stages);
        EXPECT_EQ(stats.pack_hits, update_tasks);
      } else {
        // FIFO eviction may force a repack under an unusual schedule, so
        // only the lookup total is pinned.
        EXPECT_EQ(stats.pack_hits + stats.pack_misses,
                  packed_stages + update_tasks);
      }
    }
  }
}

TEST(FunctionalDagLu, PassesHplResidualSingleWorker) {
  const auto res = run_functional_dag_lu(100, 25, 1);
  EXPECT_TRUE(res.ok);
  EXPECT_LT(res.residual, blas::kHplResidualThreshold);
}

TEST(FunctionalDagLu, PassesHplResidualFourWorkers) {
  const auto res = run_functional_dag_lu(150, 32, 4);
  EXPECT_TRUE(res.ok);
  EXPECT_LT(res.residual, blas::kHplResidualThreshold);
  // The factor and its panel tasks are timed, and each stage's packed panel
  // is shared through the pack cache by that stage's update tasks.
  EXPECT_GT(res.factor_seconds, 0.0);
  EXPECT_GT(res.panel_seconds, 0.0);
  EXPECT_GE(res.pack.pack_hits + res.pack.pack_misses, 1u);
}

TEST(FunctionalDagLu, RaggedPanelWidth) {
  // n not a multiple of nb exercises the edge panels.
  const auto res = run_functional_dag_lu(130, 28, 3);
  EXPECT_TRUE(res.ok);
}

TEST(FunctionalDagLu, SinglePanelProblem) {
  const auto res = run_functional_dag_lu(20, 64, 2);
  EXPECT_TRUE(res.ok);
}

TEST(FunctionalDagLu, RepeatedRunsAreDeterministic) {
  const auto r1 = run_functional_dag_lu(80, 16, 3, /*seed=*/7);
  const auto r2 = run_functional_dag_lu(80, 16, 3, /*seed=*/7);
  EXPECT_TRUE(r1.ok);
  EXPECT_DOUBLE_EQ(r1.residual, r2.residual);
}

// Stress the scheduler protocol with many small panels and several threads —
// on a race this either deadlocks (test timeout) or corrupts the residual.
TEST(FunctionalDagLu, ManyPanelsStress) {
  const auto res = run_functional_dag_lu(144, 8, 4);
  EXPECT_TRUE(res.ok);
}

}  // namespace
}  // namespace xphi::lu
