// The LU building blocks the Linpack drivers compose (paper Section IV):
// DGETRF panel factorization with partial pivoting, DLASWP row swapping and
// DTRSM forward solve, plus the triangular substitutions for the final
// Ax = b solve. All operate in place on row-major views.
//
// The panel / swap / TRSM chain is the look-ahead schedulers' critical path
// (the code Figures 5 and 8 pipeline around), so the hot variants here are
// blocked, and the swaps and solves are pool-parallel:
//   - getrf_panel is a recursive right-looking factorization (configurable
//     cutoff PanelOptions::nb_min) whose right-half update runs through the
//     packed gemm_tiled micro-kernel. It always runs serially, on a
//     contiguous per-thread copy of the panel (row stride = panel width), so
//     the pivot search and rank updates never stride across a wide matrix;
//   - laswp_fused composes a whole panel's interchanges (a SwapPlan, built
//     once per panel) into one permutation and applies it as disjoint
//     cycles — each row moves once, instead of one full-width sweep per
//     pivot — column-chunked across the pool;
//   - trsm_left_lower_unit / trsm_left_upper are cache-blocked
//     substitutions: L2-sized column chunks fan out across the pool and the
//     k-loop runs register-blocked updates whose rank follows the
//     dispatched micro-kernel's M_r, with per-element operation order
//     identical to the scalar reference.
// The *_unblocked scalar kernels are kept both as the leaf/diagonal cases
// and as the seed reference implementations (bench_panel measures the two
// generations against each other; the panel tests pin their equivalence).
//
// Determinism contract: for a given operand shape the blocked kernels
// perform the same per-element accumulation order no matter how the caller
// splits columns, whether a pool is supplied or what the operand's row
// stride is, so every scheduled driver (DAG, static look-ahead, hybrid,
// distributed) produces bitwise-identical factors to the sequential blocked
// oracle.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "blas/gemm_tiled.h"
#include "util/aligned.h"
#include "util/matrix.h"
#include "util/thread_pool.h"

namespace xphi::blas {

template <class T>
void trsm_left_lower_unit(util::MatrixView<const T> l, util::MatrixView<T> b,
                          util::ThreadPool* pool = nullptr);
template <class T>
bool trsm_left_upper(util::MatrixView<const T> u, util::MatrixView<T> b,
                     util::ThreadPool* pool = nullptr);

/// Column-chunk width of the blocked TRSMs: ~1 MiB of right-hand side per
/// chunk, so the solved rows a chunk keeps re-reading stay L2-resident
/// across the whole substitution. A pure shape function — and since each
/// column's arithmetic is independent, any chunking is bitwise-identical to
/// the unchunked sweep regardless.
template <class T>
constexpr std::size_t trsm_col_chunk(std::size_t n) {
  const std::size_t budget = (std::size_t{1} << 20) / sizeof(T);
  return std::max<std::size_t>(std::size_t{64}, budget / (n == 0 ? 1 : n));
}

/// Register-block rank of the blocked TRSM k-loops, inherited from the
/// dispatched GEMM micro-kernel's M_r (wider register files carry more
/// solved-row streams per destination-row pass). Each destination element's
/// subtraction chain stays strictly sequential in k for *any* rank, so the
/// choice — like the kernel-shape dispatch it follows — is bitwise-neutral.
template <class T>
std::size_t trsm_unroll_rank() {
  const auto sel = mk::select_kernel<T>(0);
  const std::size_t mr = sel ? sel.mr() : 4;
  return mr >= 8 ? 8 : 4;
}

/// Default column-chunk width of the fused LASWP pass (elements). One chunk
/// of all jb swaps touches 2*jb rows x kLaswpColChunk columns — sized so the
/// working set stays cache-resident while a pivot pass streams over it.
inline constexpr std::size_t kLaswpColChunk = 256;

/// Index of the element with the largest magnitude in column `col` of `a`,
/// searching rows [row0, a.rows()). Ties keep the lowest index (strict `>`);
/// NaN entries are never selected unless the very first element is NaN (the
/// LAPACK iamax quirk — comparisons against a NaN running max are false).
template <class T>
std::size_t iamax_col(util::MatrixView<const T> a, std::size_t col,
                      std::size_t row0) {
  std::size_t best = row0;
  T best_abs = std::abs(a(row0, col));
  for (std::size_t r = row0 + 1; r < a.rows(); ++r) {
    const T v = std::abs(a(r, col));
    if (v > best_abs) {
      best_abs = v;
      best = r;
    }
  }
  return best;
}

/// Swaps rows r1 and r2 across all columns of `a`.
template <class T>
void swap_rows(util::MatrixView<T> a, std::size_t r1, std::size_t r2) {
  if (r1 == r2) return;
  T* p1 = a.row(r1);
  T* p2 = a.row(r2);
  for (std::size_t c = 0; c < a.cols(); ++c) std::swap(p1[c], p2[c]);
}

/// DLASWP: applies the row interchanges recorded in ipiv[k0..k1) to `a`.
/// ipiv[i] is the absolute row index swapped with row i (LAPACK convention
/// with zero-based indices and no offset).
///
/// This is the sequential reference (one full-width sweep per pivot); the
/// drivers use make_swap_plan + laswp_fused, which applies the same
/// transposition sequence in one cache-blocked, pool-chunked pass.
template <class T>
void laswp(util::MatrixView<T> a, std::span<const std::size_t> ipiv,
           std::size_t k0, std::size_t k1, bool forward = true) {
  if (forward) {
    for (std::size_t i = k0; i < k1; ++i) swap_rows(a, i, ipiv[i]);
  } else {
    for (std::size_t i = k1; i-- > k0;) swap_rows(a, i, ipiv[i]);
  }
}

/// A panel's row-interchange sequence with the identity swaps filtered out —
/// built once per panel, applied to every column region (left of the panel,
/// right of the panel, look-ahead subsets) by laswp_fused. finalize()
/// composes the transpositions into the permutation's disjoint cycles, so
/// the composition cost is paid once per plan instead of once per region.
struct SwapPlan {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;  // applied in order
  // Cycle decomposition, filled by finalize(): cycle c covers
  // cyc_rows[cyc_start[c] .. cyc_start[c+1]); within a cycle, row rows[j]
  // receives rows[j + 1]'s data and the last row wraps to the first's
  // original contents. Cycles are ordered by their smallest row ascending.
  std::vector<std::size_t> cyc_rows;
  std::vector<std::size_t> cyc_start;
  std::size_t longest = 0;  // longest cycle (0 = nothing moves)
  bool finalized = false;

  bool empty() const noexcept { return pairs.empty(); }

  /// Compose the transposition sequence into disjoint cycles. Works over a
  /// compact sorted array of just the rows the plan names — O(p log p) in
  /// the pair count, independent of the matrix height. Scratch arrays are
  /// thread-local: the panel recursion finalizes a plan at every level, and
  /// per-call mallocs were a measurable slice of narrow-panel time.
  void finalize() {
    cyc_rows.clear();
    cyc_start.assign(1, 0);
    longest = 0;
    finalized = true;
    if (pairs.empty()) return;
    static thread_local std::vector<std::size_t> rows, comp;
    rows.clear();
    rows.reserve(pairs.size() * 2);
    for (const auto& [r1, r2] : pairs) {
      rows.push_back(r1);
      rows.push_back(r2);
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    const auto index_of = [](std::size_t r) {
      return static_cast<std::size_t>(
          std::lower_bound(rows.begin(), rows.end(), r) - rows.begin());
    };
    // After the whole sequence, destination rows[i] holds source comp[i].
    comp.assign(rows.begin(), rows.end());
    for (const auto& [r1, r2] : pairs)
      std::swap(comp[index_of(r1)], comp[index_of(r2)]);
    // Harvest cycles in discovery order: `rows` is sorted, so cycles come
    // out ordered by their smallest row — for the disjoint transpositions
    // of a single panel that is exactly the sweep's traversal order.
    cyc_rows.reserve(rows.size());
    for (std::size_t i0 = 0; i0 < rows.size(); ++i0) {
      if (comp[i0] == rows[i0]) continue;  // fixed point or chain undone
      const std::size_t start = cyc_rows.size();
      std::size_t i = i0;
      do {
        cyc_rows.push_back(rows[i]);
        const std::size_t nxt = index_of(comp[i]);
        comp[i] = rows[i];  // mark visited; the cycle now owns the move
        i = nxt;
      } while (i != i0);
      longest = std::max(longest, cyc_rows.size() - start);
      cyc_start.push_back(cyc_rows.size());
    }
  }
};

/// Plan for the interchanges ipiv[k0..k1), in factorization order.
/// Self-swaps are dropped and the cycle decomposition is prebuilt, ready to
/// apply to any region.
inline SwapPlan make_swap_plan(std::span<const std::size_t> ipiv,
                               std::size_t k0, std::size_t k1) {
  SwapPlan plan;
  plan.pairs.reserve(k1 - k0);
  for (std::size_t i = k0; i < k1; ++i)
    if (ipiv[i] != i) plan.pairs.emplace_back(i, ipiv[i]);
  plan.finalize();
  return plan;
}

/// Fused DLASWP: applies the plan's prebuilt cycle decomposition, so each
/// affected row moves exactly once — a 2-cycle is a plain swap, a longer
/// chain rotates through a spill buffer (L+1 row copies instead of the
/// sweep's 2(L-1)), and a row a chain returns to its origin drops out
/// entirely. For the all-disjoint plan of a single panel this degenerates
/// to exactly the sweep's swaps in the sweep's order (the 4-accesses-per-row
/// floor — there is nothing to save); the elision wins appear when batched
/// interchanges collide, as they do on block-cyclic local shares where
/// several panels' pivots land in one flush. The composition itself lives
/// in SwapPlan::finalize() and is paid once per panel, not once per
/// region; an unfinalized plan is finalized into a local copy. With a pool,
/// columns split into `col_chunk`-wide chunks (0 = kLaswpColChunk) that fan
/// out independently; serial callers keep full-width rows for streaming.
/// Pure data movement, no arithmetic: the result is exactly the sequential
/// sweep's for any order and chunking.
template <class T>
void laswp_fused(util::MatrixView<T> a, const SwapPlan& plan,
                 util::ThreadPool* pool = nullptr,
                 std::size_t col_chunk = 0) {
  if (plan.empty() || a.cols() == 0) return;
  if (!plan.finalized) {
    SwapPlan owned;
    owned.pairs = plan.pairs;
    owned.finalize();
    laswp_fused<T>(a, owned, pool, col_chunk);
    return;
  }
  const std::size_t ncycles = plan.cyc_start.size() - 1;
  if (ncycles == 0) return;  // every chain undid itself
  if (col_chunk == 0) col_chunk = kLaswpColChunk;
  const std::size_t chunks =
      pool != nullptr ? (a.cols() + col_chunk - 1) / col_chunk : 1;
  const std::size_t width = chunks > 1 ? col_chunk : a.cols();
  auto body = [&](std::size_t ci) {
    const std::size_t c0 = ci * width;
    const std::size_t w = std::min(width, a.cols() - c0);
    // Rotation scratch for chains; thread-local so steady-state applies
    // (every panel of a factorization) never touch the allocator.
    static thread_local std::vector<T> spill;
    if (plan.longest > 2 && spill.size() < w) spill.resize(w);
    std::size_t cy = 0;
    while (cy < ncycles) {
      const std::size_t* rows = plan.cyc_rows.data() + plan.cyc_start[cy];
      const std::size_t len = plan.cyc_start[cy + 1] - plan.cyc_start[cy];
      if (len == 2) {
        T* p1 = a.row(rows[0]) + c0;
        T* p2 = a.row(rows[1]) + c0;
        for (std::size_t c = 0; c < w; ++c) std::swap(p1[c], p2[c]);
        ++cy;
        continue;
      }
      const T* first = a.row(rows[0]) + c0;
      std::copy(first, first + w, spill.data());
      for (std::size_t j = 0; j + 1 < len; ++j) {
        const T* nxt = a.row(rows[j + 1]) + c0;
        std::copy(nxt, nxt + w, a.row(rows[j]) + c0);
      }
      std::copy(spill.data(), spill.data() + w, a.row(rows[len - 1]) + c0);
      ++cy;
    }
  };
  if (chunks > 1) {
    pool->parallel_for(chunks, body, /*grain=*/1);
  } else {
    body(0);
  }
}

/// Convenience: plan + fused application of ipiv[k0..k1) in one call.
/// Regions narrower than one column chunk can neither fan out nor amortize
/// the plan composition — there the pivot-order sweep is the same data
/// movement with zero setup, so they dispatch straight to it. The result is
/// identical either way (the panel recursion leans on this for its
/// half-width applies; trailing-matrix-scale regions take the plan path).
template <class T>
void laswp_fused(util::MatrixView<T> a, std::span<const std::size_t> ipiv,
                 std::size_t k0, std::size_t k1,
                 util::ThreadPool* pool = nullptr,
                 std::size_t col_chunk = 0) {
  const std::size_t chunk = col_chunk != 0 ? col_chunk : kLaswpColChunk;
  if (a.cols() < chunk) {
    laswp<T>(a, ipiv, k0, k1);
    return;
  }
  laswp_fused<T>(a, make_swap_plan(ipiv, k0, k1), pool, col_chunk);
}

/// Unblocked DGETRF of an m x n panel (m >= n): right-looking with partial
/// pivoting. Writes pivots into ipiv[0..n) as row indices local to the view.
/// Returns false if an exactly zero pivot is hit (matrix singular).
template <class T>
bool getrf_unblocked(util::MatrixView<T> a, std::span<std::size_t> ipiv) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t steps = m < n ? m : n;
  assert(ipiv.size() >= steps);
  for (std::size_t j = 0; j < steps; ++j) {
    const std::size_t p = iamax_col<T>(a, j, j);
    ipiv[j] = p;
    swap_rows(a, j, p);
    const T pivot = a(j, j);
    if (pivot == T{}) return false;
    const T inv = T{1} / pivot;
    const T* urow = a.row(j);
    for (std::size_t r = j + 1; r < m; ++r) {
      T* arow = a.row(r);
      arow[j] *= inv;
      const T l = arow[j];
      if (l == T{}) continue;
      for (std::size_t c = j + 1; c < n; ++c) arow[c] -= l * urow[c];
    }
  }
  return true;
}

/// Options of the LU critical-path kernels. The panel recursion reads
/// nb_min, laswp_col_chunk and microkernel; a stage's swaps, U-row TRSM and
/// trailing update (getrf.h) also read pool. Every field is bitwise-neutral.
struct PanelOptions {
  /// Column cutoff below which the recursion bottoms out in the unblocked
  /// scalar kernel.
  std::size_t nb_min = 8;
  /// Column-chunk width of the fused LASWP passes (0 = kLaswpColChunk).
  std::size_t laswp_col_chunk = 0;
  /// Micro-kernel registry shape id for the packed GEMM updates (mr*100+nr;
  /// 0 = auto-dispatch). Bitwise-neutral: every registered shape
  /// accumulates identically.
  int microkernel = 0;
  /// Worker pool for a stage's fused swaps, U-row TRSM and GemmTiledUpdate
  /// (getrf.h); null = serial (same results either way). getrf_panel
  /// ignores it: the panel always factors serially.
  util::ThreadPool* pool = nullptr;
};

namespace detail {

/// getrf_panel's recursion, serial, on any view.
template <class T>
bool getrf_panel_rec(util::MatrixView<T> a, std::span<std::size_t> ipiv,
                     const PanelOptions& options) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t nb_min = options.nb_min > 0 ? options.nb_min : 8;
  if (n <= nb_min || m <= 1) return getrf_unblocked<T>(a, ipiv);
  const std::size_t n1 = n / 2;
  const std::size_t n2 = n - n1;

  auto left = a.block(0, 0, m, n1);
  if (!getrf_panel_rec<T>(left, ipiv.subspan(0, n1), options)) return false;

  // Fused swap + TRSM + GEMM of the right half against the factored left.
  auto right = a.block(0, n1, m, n2);
  laswp_fused<T>(right, std::span<const std::size_t>(ipiv.data(), n1), 0, n1,
                 nullptr, options.laswp_col_chunk);
  auto l11 = a.block(0, 0, n1, n1);
  auto b_top = a.block(0, n1, n1, n2);
  trsm_left_lower_unit<T>(l11, b_top);
  if (m > n1) {
    auto a21 = a.block(n1, 0, m - n1, n1);
    auto b_bot = a.block(n1, n1, m - n1, n2);
    GemmOptions go;
    go.chunk_k = n1 < 300 ? (n1 ? n1 : 1) : 300;
    go.kernel = options.microkernel;
    gemm_tiled<T>(T{-1}, a21, b_top, T{1}, b_bot, go);
  }
  auto bottom = a.block(n1, n1, m - n1, n2);
  if (!getrf_panel_rec<T>(bottom, ipiv.subspan(n1, n2), options))
    return false;
  // Adjust the second half's pivots to be panel-relative and apply them to
  // the left columns in one fused pass.
  for (std::size_t i = 0; i < n2; ++i) ipiv[n1 + i] += n1;
  auto left_cols = a.block(0, 0, m, n1);
  laswp_fused<T>(left_cols, std::span<const std::size_t>(ipiv.data(), n), n1,
                 n, nullptr, options.laswp_col_chunk);
  return true;
}

}  // namespace detail

/// Recursive right-looking DGETRF of an m x n panel (m >= n). Splits the
/// columns, factors the left half, applies it to the right half — fused
/// swap pass, blocked TRSM, packed gemm_tiled update — then recurses into
/// the trailing right half. This is the "highly optimized panel
/// factorization" shape the native Linpack uses (paper Section IV).
///
/// A panel of a wider matrix (ld != cols) is copied into a per-thread
/// buffer with row stride n, factored there and copied back — also after a
/// zero pivot, so the caller sees the same partial state as an in-place
/// factorization. In place, a power-of-two ld puts the panel's rows on a
/// few cache sets. The recursion always runs serially: on a contiguous
/// copy it beats every pooled variant. Every element sees the same
/// operations in the same order either way, so the copy changes no bit.
template <class T>
bool getrf_panel(util::MatrixView<T> a, std::span<std::size_t> ipiv,
                 const PanelOptions& options = {}) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (a.ld() == n) return detail::getrf_panel_rec<T>(a, ipiv, options);
  static thread_local util::AlignedBuffer<T> scratch;
  scratch.resize_for_overwrite(m * n);
  const util::MatrixView<T> c(scratch.data(), m, n, n);
  for (std::size_t r = 0; r < m; ++r)
    std::copy(a.row(r), a.row(r) + n, c.row(r));
  const bool ok = detail::getrf_panel_rec<T>(c, ipiv, options);
  for (std::size_t r = 0; r < m; ++r)
    std::copy(c.row(r), c.row(r) + n, a.row(r));
  return ok;
}

/// Scalar DTRSM, left side, lower triangular, unit diagonal: solves
/// L * X = B in place (B becomes X). The seed kernel — kept as the
/// diagonal-block case of the blocked solve and as the bench baseline.
template <class T>
void trsm_left_lower_unit_unblocked(util::MatrixView<const T> l,
                                    util::MatrixView<T> b) {
  const std::size_t n = l.rows();
  assert(l.cols() == n && b.rows() == n);
  for (std::size_t i = 0; i < n; ++i) {
    T* bi = b.row(i);
    for (std::size_t kk = 0; kk < i; ++kk) {
      const T lik = l(i, kk);
      if (lik == T{}) continue;
      const T* bk = b.row(kk);
      for (std::size_t c = 0; c < b.cols(); ++c) bi[c] -= lik * bk[c];
    }
  }
}

namespace detail {

/// One column chunk of the blocked forward substitution, register-blocked
/// at compile-time rank R: each destination-row pass streams R solved rows,
/// subtracting them in ascending k order (a strictly sequential chain per
/// element — bitwise-identical to the scalar sweep for any R).
template <class T, std::size_t R>
void trsm_lower_cols(util::MatrixView<const T> l, util::MatrixView<T> b,
                     std::size_t c0, std::size_t w) {
  const std::size_t n = l.rows();
  for (std::size_t i = 1; i < n; ++i) {
    T* bi = b.row(i) + c0;
    std::size_t kk = 0;
    for (; kk + R <= i; kk += R) {
      T lv[R];
      const T* br[R];
      for (std::size_t u = 0; u < R; ++u) {
        lv[u] = l(i, kk + u);
        br[u] = b.row(kk + u) + c0;
      }
      for (std::size_t c = 0; c < w; ++c) {
        T v = bi[c];
        for (std::size_t u = 0; u < R; ++u) v -= lv[u] * br[u][c];
        bi[c] = v;
      }
    }
    for (; kk < i; ++kk) {
      const T lik = l(i, kk);
      const T* bk = b.row(kk) + c0;
      for (std::size_t c = 0; c < w; ++c) bi[c] -= lik * bk[c];
    }
  }
}

/// Backward-substitution sibling of trsm_lower_cols (plus the diagonal
/// scaling). The caller has already verified the diagonal is nonzero.
template <class T, std::size_t R>
void trsm_upper_cols(util::MatrixView<const T> u, util::MatrixView<T> b,
                     std::size_t c0, std::size_t w) {
  const std::size_t n = u.rows();
  for (std::size_t i = n; i-- > 0;) {
    T* bi = b.row(i) + c0;
    std::size_t kk = i + 1;
    for (; kk + R <= n; kk += R) {
      T uv[R];
      const T* br[R];
      for (std::size_t q = 0; q < R; ++q) {
        uv[q] = u(i, kk + q);
        br[q] = b.row(kk + q) + c0;
      }
      for (std::size_t c = 0; c < w; ++c) {
        T v = bi[c];
        for (std::size_t q = 0; q < R; ++q) v -= uv[q] * br[q][c];
        bi[c] = v;
      }
    }
    for (; kk < n; ++kk) {
      const T uik = u(i, kk);
      const T* bk = b.row(kk) + c0;
      for (std::size_t c = 0; c < w; ++c) bi[c] -= uik * bk[c];
    }
    const T inv = T{1} / u(i, i);
    for (std::size_t c = 0; c < w; ++c) bi[c] *= inv;
  }
}

}  // namespace detail

/// DTRSM, left side, lower triangular, unit diagonal: solves L * X = B in
/// place. Cache-blocked: B advances in column chunks sized so a chunk's
/// solved rows stay L2-resident across the whole substitution (the scalar
/// sweep re-streams every solved row from L3 once B outgrows the cache),
/// and the k-loop runs register-blocked updates — rank inherited from the
/// dispatched micro-kernel (trsm_unroll_rank) — that keep the destination
/// row in registers instead of re-loading and re-storing it per solved
/// row, the same sub-blocking idea as the GEMM micro-kernel's register
/// tiles. Columns are arithmetically independent and each element's
/// subtraction order is exactly the scalar loop's, so any chunking, rank,
/// and a pool fanning the chunks out are all bitwise-identical to the
/// unblocked reference.
template <class T>
void trsm_left_lower_unit(util::MatrixView<const T> l, util::MatrixView<T> b,
                          util::ThreadPool* pool) {
  const std::size_t n = l.rows();
  assert(l.cols() == n && b.rows() == n);
  if (n == 0 || b.cols() == 0) return;
  const std::size_t chunk = trsm_col_chunk<T>(n);
  const std::size_t chunks = (b.cols() + chunk - 1) / chunk;
  const std::size_t rank = trsm_unroll_rank<T>();
  auto body = [&](std::size_t ci) {
    const std::size_t c0 = ci * chunk;
    const std::size_t w = std::min(chunk, b.cols() - c0);
    switch (rank) {
      case 8:
        detail::trsm_lower_cols<T, 8>(l, b, c0, w);
        break;
      default:
        detail::trsm_lower_cols<T, 4>(l, b, c0, w);
        break;
    }
  };
  if (pool != nullptr && chunks > 1) {
    pool->parallel_for(chunks, body, /*grain=*/1);
  } else {
    for (std::size_t ci = 0; ci < chunks; ++ci) body(ci);
  }
}

/// Scalar DTRSM, left side, upper triangular, non-unit diagonal. The caller
/// must have verified the diagonal is nonzero (see trsm_left_upper).
template <class T>
void trsm_left_upper_unblocked(util::MatrixView<const T> u,
                               util::MatrixView<T> b) {
  const std::size_t n = u.rows();
  assert(u.cols() == n && b.rows() == n);
  for (std::size_t i = n; i-- > 0;) {
    T* bi = b.row(i);
    for (std::size_t kk = i + 1; kk < n; ++kk) {
      const T uik = u(i, kk);
      if (uik == T{}) continue;
      const T* bk = b.row(kk);
      for (std::size_t c = 0; c < b.cols(); ++c) bi[c] -= uik * bk[c];
    }
    const T inv = T{1} / u(i, i);
    for (std::size_t c = 0; c < b.cols(); ++c) bi[c] *= inv;
  }
}

/// DTRSM, left side, upper triangular, non-unit diagonal: solves U * X = B
/// in place. Cache-blocked back substitution with the same column-chunk +
/// micro-kernel-derived register blocking as trsm_left_lower_unit;
/// bitwise-identical to the unblocked reference for the same reason.
///
/// Singularity contract (mirrors getrf's zero-pivot report): if any diagonal
/// entry is exactly zero the solve returns false and leaves B untouched —
/// no division by zero, no partially-overwritten right-hand side.
template <class T>
bool trsm_left_upper(util::MatrixView<const T> u, util::MatrixView<T> b,
                     util::ThreadPool* pool) {
  const std::size_t n = u.rows();
  assert(u.cols() == n && b.rows() == n);
  for (std::size_t i = 0; i < n; ++i)
    if (u(i, i) == T{}) return false;
  if (n == 0 || b.cols() == 0) return true;
  const std::size_t chunk = trsm_col_chunk<T>(n);
  const std::size_t chunks = (b.cols() + chunk - 1) / chunk;
  const std::size_t rank = trsm_unroll_rank<T>();
  auto body = [&](std::size_t ci) {
    const std::size_t c0 = ci * chunk;
    const std::size_t w = std::min(chunk, b.cols() - c0);
    switch (rank) {
      case 8:
        detail::trsm_upper_cols<T, 8>(u, b, c0, w);
        break;
      default:
        detail::trsm_upper_cols<T, 4>(u, b, c0, w);
        break;
    }
  };
  if (pool != nullptr && chunks > 1) {
    pool->parallel_for(chunks, body, /*grain=*/1);
  } else {
    for (std::size_t ci = 0; ci < chunks; ++ci) body(ci);
  }
  return true;
}

/// Solves A x = b given the in-place LU factors and pivot vector of A.
/// b is overwritten with x.
template <class T>
void lu_solve_vector(util::MatrixView<const T> lu,
                     std::span<const std::size_t> ipiv, std::span<T> b) {
  const std::size_t n = lu.rows();
  assert(lu.cols() == n && b.size() == n && ipiv.size() >= n);
  // Apply the recorded interchanges to b.
  for (std::size_t i = 0; i < n; ++i)
    if (ipiv[i] != i) std::swap(b[i], b[ipiv[i]]);
  // Forward substitution with unit lower L, kRows rows at a time: over the
  // solved columns j < i0 each row keeps its own accumulator and its own
  // ascending-j chain, so the block's chains interleave (independent
  // latency-bound dependency chains) while every b[i] is bit-identical to
  // the one-row-at-a-time sweep. Rows past the last full block run that
  // sweep directly. Back substitution keeps its single chain: row i's
  // chain starts with b[i+1], which no reordering could share.
  constexpr std::size_t kRows = 8;
  std::size_t i0 = 0;
  for (; i0 + kRows <= n; i0 += kRows) {
    T acc[kRows];
    const T* row[kRows];
    for (std::size_t r = 0; r < kRows; ++r) {
      acc[r] = b[i0 + r];
      row[r] = lu.row(i0 + r);
    }
    for (std::size_t j = 0; j < i0; ++j) {
      const T bj = b[j];
      for (std::size_t r = 0; r < kRows; ++r) acc[r] -= row[r][j] * bj;
    }
    for (std::size_t r = 0; r < kRows; ++r) {
      for (std::size_t j = i0; j < i0 + r; ++j) acc[r] -= row[r][j] * b[j];
      b[i0 + r] = acc[r];
    }
  }
  for (std::size_t i = i0; i < n; ++i) {
    T acc = b[i];
    const T* row = lu.row(i);
    for (std::size_t j = 0; j < i; ++j) acc -= row[j] * b[j];
    b[i] = acc;
  }
  // Back substitution with upper U.
  for (std::size_t i = n; i-- > 0;) {
    T acc = b[i];
    const T* row = lu.row(i);
    for (std::size_t j = i + 1; j < n; ++j) acc -= row[j] * b[j];
    b[i] = acc / row[i];
  }
}

}  // namespace xphi::blas
