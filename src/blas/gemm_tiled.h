// Tiled GEMM over the Knights Corner packed format (paper Section III-A2),
// dispatched through the runtime micro-kernel registry.
//
// Every C tile runs a registered micro-kernel (blas/microkernel/registry.h):
// the same register-blocked loop nest as Basic Kernel 2 — the Mr x Nr
// accumulator block stands in for the 30 accumulator vector registers —
// streaming one column of the packed `a` tile and one row of the packed `b`
// tile per k-iteration, written once on vector-extension types and compiled
// per ISA tier (kernels_inl.h). The cycle-accurate behaviour of the real
// kernel lives in sim/pipeline.h; what this functional version shares with
// it is the data layout, the loop structure, and the numerics (verified
// against gemm_ref).
//
// The kernel shape is a runtime decision: mk::select_kernel picks the
// registry's M_r x N_r shape for the widest ISA tier the host supports (the
// measured policy in blas/microkernel/registry.h), gemm_tiled packs operands
// at that shape's tile geometry, and interior tiles run the shape's
// branch-free full-tile path while true edge tiles take its masked store —
// the paper's "edge waste" — so interior tiles never pay for edges. Every
// registered shape and ISA variant accumulates each C element over k in the
// same ascending order (kernels_inl.h), so dispatch changes speed, never
// numerics.
//
// On top of the k-chunked outer-product pipeline, GemmOptions adds the
// classic mc/nc cache blocking: C advances in (mc x nc) panels so the
// packed A block stays L2-resident and the packed B panel inside TLB reach
// (defaults: unbounded, i.e. the PR 5 behavior; blas/block_model.h derives
// analytic values from the probed cache geometry). mc/nc only re-order
// *which* C block is computed when — each element's k-accumulation order is
// untouched — so they are bitwise-neutral; chunk_k is the one knob that
// changes rounding.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <type_traits>

#include "blas/microkernel/registry.h"
#include "blas/pack.h"
#include "util/matrix.h"
#include "util/thread_pool.h"

namespace xphi::blas {

/// Performance knobs of the tiled GEMM. Every field is bitwise-neutral
/// except chunk_k (each k-chunk is a separately rounded rank-kc update);
/// mc/nc/kernel only change execution order and instruction selection.
struct GemmOptions {
  /// Outer-product panel depth kc (the paper's k = 300 default).
  std::size_t chunk_k = 300;
  /// Row/column blocking of C (0 = unbounded, the PR 5 behavior). Rounded
  /// to tile multiples internally; blas/block_model.h supplies analytic
  /// values.
  std::size_t mc = 0;
  std::size_t nc = 0;
  /// Registry shape id (mr*100 + nr; 0 = auto-dispatch). The
  /// XPHI_MICROKERNEL env pin overrides both fields.
  int kernel = 0;
  /// Full forcing spec, e.g. "3x8@generic" (wins over `kernel`); benches
  /// use this for frozen-baseline comparisons.
  const char* kernel_spec = nullptr;
  util::ThreadPool* pool = nullptr;
};

namespace detail {

/// A resolved registry micro-kernel (its shape fixes the pack geometry);
/// callable with the (tile pointers, k, rows, cols) of one C tile. Only the
/// registry's element types have kernels.
template <class T>
struct MicroDispatch {
  static_assert(std::is_same_v<T, double> || std::is_same_v<T, float>,
                "the micro-kernel registry instantiates double and float");
  mk::Selection<T> sel;

  void operator()(const T* a_tile, const T* b_tile, std::size_t k, T alpha,
                  T beta, T* c, std::size_t ldc, std::size_t rows,
                  std::size_t cols) const {
    if (rows == sel.tile_rows() && cols == sel.nr()) {
      sel.fns.full(a_tile, b_tile, k, alpha, beta, c, ldc);
    } else {
      sel.fns.masked(a_tile, b_tile, k, alpha, beta, c, ldc, rows, cols);
    }
  }
};

template <class T>
MicroDispatch<T> resolve_dispatch(int kernel, const char* kernel_spec) {
  if (kernel_spec != nullptr)
    if (auto s = mk::select_kernel_spec<T>(kernel_spec)) return {*s};
  return {mk::select_kernel<T>(kernel)};
}

/// The k-chunked outer-product pipeline over one C block (paper Section
/// III-A: "a sequence of outer products"), packing each chunk into the
/// Knights Corner-friendly format before multiplying.
///
/// Packing is pool-parallel, and with a pool the packing of chunk i+1 is
/// folded into the same dispatch as chunk i's outer products: pack tasks sit
/// behind the micro-kernel tasks in the dynamically claimed index space, so
/// workers that drain the compute tasks early pick up next-chunk packing
/// instead of idling (the double-buffered operand panels make the two chunks
/// independent).
template <class T>
void gemm_block(T alpha, util::MatrixView<const T> a,
                util::MatrixView<const T> b, T beta, util::MatrixView<T> c,
                std::size_t chunk_k, const MicroDispatch<T>& micro,
                util::ThreadPool* pool) {
  const std::size_t big_k = a.cols();
  PackedA<T> pa[2];
  PackedB<T> pb[2];
  const std::size_t kc0 = std::min(chunk_k, big_k);
  pa[0].pack(a.block(0, 0, a.rows(), kc0), micro.sel.tile_rows(), pool);
  pb[0].pack(b.block(0, 0, kc0, b.cols()), micro.sel.nr(), pool);
  std::size_t cur = 0;
  for (std::size_t k0 = 0; k0 < big_k; k0 += chunk_k) {
    const std::size_t next_k0 = k0 + chunk_k;
    const bool has_next = next_k0 < big_k;
    // beta applies to the first chunk only; later chunks accumulate.
    const T chunk_beta = k0 == 0 ? beta : T{1};
    const std::size_t op_tasks = pa[cur].tiles() * pb[cur].tiles();
    const std::size_t k_cur = pa[cur].depth();
    const std::size_t col_tiles = pb[cur].tiles();
    const std::size_t nxt = 1 - cur;
    std::size_t a_tiles = 0, b_tiles = 0;
    if (has_next) {
      const std::size_t kc = std::min(chunk_k, big_k - next_k0);
      a_tiles = pa[nxt].prepare(a.block(0, next_k0, a.rows(), kc),
                                micro.sel.tile_rows());
      b_tiles = pb[nxt].prepare(b.block(next_k0, 0, kc, b.cols()),
                                micro.sel.nr());
    }
    auto fused = [&](std::size_t task) {
      if (task < op_tasks) {
        const std::size_t rt = task / col_tiles;
        const std::size_t ct = task % col_tiles;
        const std::size_t r0 = rt * pa[cur].tile_rows();
        const std::size_t c0 = ct * pb[cur].tile_cols();
        micro(pa[cur].tile(rt), pb[cur].tile(ct), k_cur, alpha, chunk_beta,
              c.data() + r0 * c.ld() + c0, c.ld(), pa[cur].tile_height(rt),
              pb[cur].tile_width(ct));
      } else if (task < op_tasks + a_tiles) {
        pa[nxt].pack_tile(task - op_tasks);
      } else {
        pb[nxt].pack_tile(task - op_tasks - a_tiles);
      }
    };
    const std::size_t total = op_tasks + a_tiles + b_tiles;
    if (pool != nullptr) {
      pool->parallel_for(total, fused);
    } else {
      for (std::size_t t = 0; t < total; ++t) fused(t);
    }
    if (!has_next) break;
    cur = nxt;
  }
}

}  // namespace detail

/// One outer product over pre-packed operands:
/// C(MxN) = alpha * Ai * Bi + beta * C.
/// The pack layout is the caller's, so dispatch runs the registered shape
/// with that layout (mk::select_for_tile; a `kernel` pin or the env override
/// is honored when compatible). Operands packed at a geometry no registered
/// shape uses are rejected with std::invalid_argument. Pack at
/// mk::select_kernel<T>(kernel)'s tile_rows()/nr() to run that kernel.
template <class T>
void outer_product_packed(T alpha, const PackedA<T>& a, const PackedB<T>& b,
                          T beta, util::MatrixView<T> c,
                          util::ThreadPool* pool = nullptr, int kernel = 0) {
  const detail::MicroDispatch<T> micro{
      mk::select_for_tile<T>(a.tile_rows(), b.tile_cols(), kernel)};
  if (!micro.sel)
    throw std::invalid_argument(
        "outer_product_packed: no registered micro-kernel packs this "
        "tile geometry");
  const std::size_t k = a.depth();
  const std::size_t col_tiles = b.tiles();
  auto body = [&](std::size_t task) {
    const std::size_t rt = task / col_tiles;
    const std::size_t ct = task % col_tiles;
    const std::size_t r0 = rt * a.tile_rows();
    const std::size_t c0 = ct * b.tile_cols();
    micro(a.tile(rt), b.tile(ct), k, alpha, beta,
          c.data() + r0 * c.ld() + c0, c.ld(), a.tile_height(rt),
          b.tile_width(ct));
  };
  const std::size_t tasks = a.tiles() * col_tiles;
  if (pool != nullptr) {
    pool->parallel_for(tasks, body);
  } else {
    for (std::size_t t = 0; t < tasks; ++t) body(t);
  }
}

/// Full GEMM C = alpha*A*B + beta*C: registry-dispatched micro-kernel,
/// k-chunked outer-product pipeline, optional mc/nc cache blocking of C.
template <class T>
void gemm_tiled(T alpha, util::MatrixView<const T> a,
                util::MatrixView<const T> b, T beta, util::MatrixView<T> c,
                const GemmOptions& opt) {
  const std::size_t big_k = a.cols();
  if (big_k == 0 || c.rows() == 0 || c.cols() == 0) {
    // Pure scaling: C = beta * C.
    for (std::size_t r = 0; r < c.rows(); ++r)
      for (std::size_t cc = 0; cc < c.cols(); ++cc) c(r, cc) *= beta;
    return;
  }
  const detail::MicroDispatch<T> micro =
      detail::resolve_dispatch<T>(opt.kernel, opt.kernel_spec);
  const std::size_t chunk_k = opt.chunk_k != 0 ? opt.chunk_k : 300;
  // Round the C blocking to tile multiples so mc/nc never manufacture edge
  // tiles in the interior (edges would still be *correct* — the masked
  // kernel accumulates identically — just slower).
  std::size_t mc = opt.mc;
  std::size_t nc = opt.nc;
  const std::size_t tr = micro.sel.tile_rows(), tc = micro.sel.nr();
  if (mc != 0) mc = std::max(tr, mc / tr * tr);
  if (nc != 0) nc = std::max(tc, nc / tc * tc);
  if (mc == 0 || mc > c.rows()) mc = c.rows();
  if (nc == 0 || nc > c.cols()) nc = c.cols();
  for (std::size_t jc = 0; jc < c.cols(); jc += nc) {
    const std::size_t nb = std::min(nc, c.cols() - jc);
    for (std::size_t ic = 0; ic < c.rows(); ic += mc) {
      const std::size_t mb = std::min(mc, c.rows() - ic);
      detail::gemm_block<T>(alpha, a.block(ic, 0, mb, big_k),
                            b.block(0, jc, big_k, nb), beta,
                            c.block(ic, jc, mb, nb), chunk_k, micro,
                            opt.pool);
    }
  }
}

/// Back-compatible spelling: chunk_k + pool, auto-dispatched kernel,
/// unblocked C (exactly the PR 5 path).
template <class T>
void gemm_tiled(T alpha, util::MatrixView<const T> a,
                util::MatrixView<const T> b, T beta, util::MatrixView<T> c,
                std::size_t chunk_k = 300, util::ThreadPool* pool = nullptr) {
  GemmOptions opt;
  opt.chunk_k = chunk_k;
  opt.pool = pool;
  gemm_tiled<T>(alpha, a, b, beta, c, opt);
}

/// Column-major GEMM derived from the row-major kernel by operand swap
/// (paper footnote 3: transposing both sides of C_cm = A_cm * B_cm yields
/// C_rm = B_rm * A_rm, where each column-major matrix reinterprets in place
/// as its row-major transpose). All pointers address column-major data with
/// the given leading dimensions. The options apply to the swapped (row-
/// major) problem: mc blocks columns of the original C, nc its rows.
template <class T>
void gemm_tiled_colmajor(std::size_t m, std::size_t n, std::size_t k, T alpha,
                         const T* a, std::size_t lda, const T* b,
                         std::size_t ldb, T beta, T* c, std::size_t ldc,
                         const GemmOptions& opt) {
  // Column-major M x K with leading dimension lda == row-major K x M.
  const util::MatrixView<const T> a_t(a, k, m, lda);
  const util::MatrixView<const T> b_t(b, n, k, ldb);
  util::MatrixView<T> c_t(c, n, m, ldc);
  gemm_tiled<T>(alpha, b_t, a_t, beta, c_t, opt);
}

template <class T>
void gemm_tiled_colmajor(std::size_t m, std::size_t n, std::size_t k, T alpha,
                         const T* a, std::size_t lda, const T* b,
                         std::size_t ldb, T beta, T* c, std::size_t ldc,
                         std::size_t chunk_k = 300,
                         util::ThreadPool* pool = nullptr) {
  GemmOptions opt;
  opt.chunk_k = chunk_k;
  opt.pool = pool;
  gemm_tiled_colmajor<T>(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, opt);
}

}  // namespace xphi::blas
