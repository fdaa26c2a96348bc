// Sequential blocked right-looking LU with partial pivoting — the functional
// oracle the scheduled (DAG / static look-ahead / hybrid) drivers are tested
// against. Mirrors Figure 5a: factor panel [DL]i, swap rows, forward-solve
// the U row panel, GEMM-update the trailing matrix, advance.
//
// That step is split into two stage primitives every LU driver composes:
//   - factor_stage_panel: the recursive panel factorization of a stage,
//     pivots made absolute;
//   - update_stage_columns: the stage's row interchanges, the U-row TRSM and
//     a caller-supplied trailing update, over any column range right of the
//     panel.
// getrf_blocked runs them in order with the pooled gemm_tiled update (or a
// caller's backend — the offload engine, for instance); the DAG, hybrid and
// distributed drivers reorder the same calls (paper Figure 8). Every kernel
// underneath keeps its per-element accumulation order under any column
// split, pool or backend tiling, so all of them produce the oracle's bits.
#pragma once

#include <span>
#include <type_traits>

#include "blas/lu_kernels.h"
#include "util/matrix.h"
#include "util/thread_pool.h"

namespace xphi::blas {

/// Factors the stage panel (rows row0.. of the matrix, pw = panel.cols()
/// columns) in place and writes absolute pivots into piv. Returns false on
/// an exactly zero pivot.
template <class T>
bool factor_stage_panel(util::MatrixView<T> panel, std::span<std::size_t> piv,
                        std::size_t row0, const PanelOptions& options) {
  if (!getrf_panel<T>(panel, piv, options)) return false;
  for (std::size_t& p : piv) p += row0;
  return true;
}

/// Applies stage [i0, i0+pw)'s interchanges (absolute, in ipiv) to columns
/// [c0, c0+ncols) of the square matrix `a`, solves L11 * U12 = A12 there and
/// hands the trailing block to `update(l21, u12, a22, options)`, which must
/// compute A22 -= L21 * U12. The columns must lie right of the panel.
template <class T, class Update>
void update_stage_columns(util::MatrixView<T> a,
                          std::span<const std::size_t> ipiv, std::size_t i0,
                          std::size_t pw, std::size_t c0, std::size_t ncols,
                          const PanelOptions& options, Update&& update) {
  if (ncols == 0) return;
  const std::size_t n = a.rows();
  // Every pivot of the stage is at or below row i0, so the interchanges
  // touch only rows i0.. and apply as one block-local fused pass.
  SwapPlan plan;
  plan.pairs.reserve(pw);
  for (std::size_t t = 0; t < pw; ++t)
    if (ipiv[i0 + t] != i0 + t) plan.pairs.emplace_back(t, ipiv[i0 + t] - i0);
  plan.finalize();
  laswp_fused<T>(a.block(i0, c0, n - i0, ncols), plan, options.pool,
                 options.laswp_col_chunk);
  const auto u12 = a.block(i0, c0, pw, ncols);
  trsm_left_lower_unit<T>(a.block(i0, i0, pw, pw), u12, options.pool);
  if (i0 + pw < n)
    update(util::MatrixView<const T>(a.block(i0 + pw, i0, n - i0 - pw, pw)),
           util::MatrixView<const T>(u12),
           a.block(i0 + pw, c0, n - i0 - pw, ncols), options);
}

/// The default trailing update: A22 -= L21 * U12 through gemm_tiled on the
/// options' pool and micro-kernel (PanelOptions::microkernel, 0 = auto), the
/// same registry kernel the panel's own packed updates use.
struct GemmTiledUpdate {
  template <class T>
  void operator()(std::type_identity_t<util::MatrixView<const T>> l21,
                  std::type_identity_t<util::MatrixView<const T>> u12,
                  util::MatrixView<T> a22, const PanelOptions& options) const {
    GemmOptions go;
    go.chunk_k = l21.cols();
    go.kernel = options.microkernel;
    go.pool = options.pool;
    gemm_tiled<T>(T{-1}, l21, u12, T{1}, a22, go);
  }
};

/// In-place blocked LU of the square matrix `a` with panel width nb.
/// ipiv[i] records the absolute row swapped with row i.
/// Returns false on an exactly zero pivot. `panel` carries the recursion
/// cutoff, LASWP chunk and micro-kernel knobs; its pool field is overridden
/// by `pool`. `update` is the trailing-update backend (see
/// update_stage_columns).
template <class T, class Update = GemmTiledUpdate>
bool getrf_blocked(util::MatrixView<T> a, std::span<std::size_t> ipiv,
                   std::size_t nb = 64, util::ThreadPool* pool = nullptr,
                   PanelOptions panel = {}, Update update = {}) {
  const std::size_t n = a.rows();
  assert(a.cols() == n && ipiv.size() >= n);
  panel.pool = pool;
  for (std::size_t i = 0; i < n; i += nb) {
    const std::size_t jb = std::min(nb, n - i);
    if (!factor_stage_panel<T>(a.block(i, i, n - i, jb), ipiv.subspan(i, jb),
                               i, panel))
      return false;
    const std::span<const std::size_t> piv(ipiv.data(), n);
    if (i > 0)
      laswp_fused<T>(a.block(0, 0, n, i), piv, i, i + jb, pool,
                     panel.laswp_col_chunk);
    update_stage_columns<T>(a, piv, i, jb, i + jb, n - i - jb, panel, update);
  }
  return true;
}

}  // namespace xphi::blas
