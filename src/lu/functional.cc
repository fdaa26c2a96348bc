#include "lu/functional.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "blas/getrf.h"
#include "blas/pack_cache.h"
#include "blas/residual.h"
#include "lu/dag.h"
#include "util/rng.h"

namespace xphi::lu {

namespace {

using util::MatrixView;

template <class T>
struct Shared {
  MatrixView<T> a;
  std::span<std::size_t> ipiv;
  std::size_t nb;
  PanelDag* dag;
  blas::PanelOptions panel;
  // The update kernel, resolved once: every L21/U12 pack is made at its
  // tile geometry, so outer_product_packed runs exactly this kernel.
  blas::mk::Selection<T> kernel =
      blas::mk::select_kernel<T>(panel.microkernel);
  // Every update task of stage i multiplies against the same L21 panel; the
  // stage's panel task packs it into the cache (keyed by stage) once, and
  // the update tasks hit it.
  // A handful of entries suffices: look-ahead keeps only a few stages live.
  blas::PackCache<T> packs{8};
  std::atomic<bool> failed{false};
  std::atomic<double> panel_seconds{0};
};

template <class T>
void execute_task(const Task& task, Shared<T>& sh) {
  const std::size_t n = sh.a.rows();
  const std::size_t nb = sh.nb;
  const std::size_t r0 = task.stage * nb;
  const std::size_t iw = std::min(nb, n - r0);
  if (task.kind == TaskKind::kPanelFactor) {
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = blas::factor_stage_panel<T>(
        sh.a.block(r0, r0, n - r0, iw), sh.ipiv.subspan(r0, iw), r0,
        sh.panel);
    sh.panel_seconds.fetch_add(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count(),
        std::memory_order_relaxed);
    if (!ok) {
      sh.failed.store(true, std::memory_order_relaxed);
      return;
    }
    // Pack this stage's L21 now, from the rows the panel's copy-back just
    // left in cache, so no update task of the stage waits in the cache's
    // call_once behind another one's pack. L21 is final from here until the
    // left-swap post-pass: the update tasks only write columns right of the
    // panel, so they find exactly these bits under the same key.
    if (r0 + iw < n)
      sh.packs.get_a(MatrixView<const T>(sh.a.block(r0 + iw, r0, n - r0 - iw,
                                                    iw)),
                     /*tag=*/task.stage, sh.kernel.tile_rows());
    return;
  }
  // Swap + forward solve + trailing update of panel j against stage i. The
  // update is a single rank-iw outer product over packed operands: L21 is
  // identical for every panel of this stage, so it comes from the
  // stage-tagged pack cache (packed by the stage's panel task); U12 is
  // task-private (its pack buffer is thread-local to amortize allocations
  // across tasks).
  const std::size_t c0 = task.panel * nb;
  blas::update_stage_columns<T>(
      sh.a, sh.ipiv, r0, iw, c0, std::min(nb, n - c0), sh.panel,
      [&](MatrixView<const T> l21, MatrixView<const T> u,
          MatrixView<T> a22, const blas::PanelOptions& opt) {
        const auto pl21 =
            sh.packs.get_a(l21, /*tag=*/task.stage, sh.kernel.tile_rows());
        thread_local blas::PackedB<T> pu;
        pu.pack(u, sh.kernel.nr());
        blas::outer_product_packed<T>(T(-1), *pl21, pu, T(1), a22,
                                      /*pool=*/nullptr, opt.microkernel);
      });
}

template <class T>
void worker_loop(Shared<T>& sh) {
  while (!sh.dag->done() && !sh.failed.load(std::memory_order_relaxed)) {
    auto task = sh.dag->acquire();
    if (!task) {
      std::this_thread::yield();
      continue;
    }
    execute_task(*task, sh);
    sh.dag->commit(*task);
  }
}

}  // namespace

template <class T>
bool dag_lu_factor_t(MatrixView<T> a, std::span<std::size_t> ipiv,
                     std::size_t nb, int workers, DagLuPackStats* pack_stats,
                     blas::PanelOptions panel, double* panel_seconds) {
  const std::size_t n = a.rows();
  const std::size_t num_panels = (n + nb - 1) / nb;
  PanelDag dag(num_panels);
  panel.pool = nullptr;
  Shared<T> sh{a, ipiv, nb, &dag, panel};

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(std::max(1, workers)) - 1);
  for (int w = 1; w < workers; ++w)
    threads.emplace_back([&sh] { worker_loop(sh); });
  worker_loop(sh);
  for (auto& th : threads) th.join();
  if (pack_stats != nullptr)
    *pack_stats = {sh.packs.hits(), sh.packs.misses()};
  if (panel_seconds != nullptr) *panel_seconds = sh.panel_seconds.load();
  if (sh.failed.load()) return false;

  // Post-pass: apply each stage's interchanges to the L panels on its left,
  // in stage order — the part of DLASWP the DAG tasks (which only touch
  // panels right of the diagonal) defer. One fused pass per stage.
  for (std::size_t p = 1; p < num_panels; ++p) {
    const std::size_t r0 = p * nb;
    const std::size_t pw = std::min(nb, n - r0);
    auto left = a.block(0, 0, n, r0);
    blas::laswp_fused<T>(
        left, std::span<const std::size_t>(ipiv.data(), n), r0, r0 + pw,
        /*pool=*/nullptr, panel.laswp_col_chunk);
  }
  return true;
}

template bool dag_lu_factor_t<float>(MatrixView<float>, std::span<std::size_t>,
                                     std::size_t, int, DagLuPackStats*,
                                     blas::PanelOptions, double*);
template bool dag_lu_factor_t<double>(MatrixView<double>,
                                      std::span<std::size_t>, std::size_t, int,
                                      DagLuPackStats*, blas::PanelOptions,
                                      double*);

FunctionalLuResult run_functional_dag_lu(std::size_t n, std::size_t nb,
                                         int workers, std::uint64_t seed,
                                         blas::PanelOptions panel) {
  util::Matrix<double> a(n, n), orig(n, n);
  util::fill_hpl_matrix(a.view(), seed);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) orig(r, c) = a(r, c);
  std::vector<double> b(n), x(n);
  util::Rng rng(seed ^ 0xb0b);
  for (auto& v : b) v = rng.next_centered();
  x = b;
  std::vector<std::size_t> ipiv(n);

  FunctionalLuResult res;
  const auto t0 = std::chrono::steady_clock::now();
  const bool factored = dag_lu_factor(a.view(), ipiv, nb, workers, &res.pack,
                                      panel, &res.panel_seconds);
  res.factor_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!factored) return res;
  blas::lu_solve_vector<double>(a.view(), ipiv, x);
  res.residual = blas::hpl_residual<double>(orig.view(), x, b);
  res.ok = res.residual < blas::kHplResidualThreshold;
  return res;
}

}  // namespace xphi::lu
