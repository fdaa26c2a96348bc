#include "core/hybrid_functional.h"

#include <algorithm>
#include <future>
#include <vector>

#include "blas/getrf.h"
#include "blas/residual.h"
#include "util/rng.h"

namespace xphi::core {

namespace {
using util::Matrix;
using util::MatrixView;
}  // namespace

HybridFunctionalResult run_functional_hybrid_hpl(
    const HybridFunctionalConfig& cfg, std::uint64_t seed) {
  HybridFunctionalResult res;
  const std::size_t n = cfg.n;
  const std::size_t nb = cfg.nb;

  Matrix<double> a(n, n), orig(n, n);
  util::fill_hpl_matrix(a.view(), seed);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) orig(r, c) = a(r, c);
  std::vector<std::size_t> ipiv(n);

  blas::PanelOptions popt = cfg.panel;
  popt.pool = nullptr;
  const std::span<const std::size_t> piv(ipiv);

  // Factor the panel at stage i0 in place (absolute pivots). Returns false
  // on a zero pivot.
  auto factor_panel = [&](std::size_t i0) {
    const std::size_t pw = std::min(nb, n - i0);
    return blas::factor_stage_panel<double>(
        a.block(i0, i0, n - i0, pw), std::span(ipiv).subspan(i0, pw), i0,
        popt);
  };

  // Swap + solve + offload-shaped trailing update of columns [c0, c0+ncols)
  // at stage i0. The offload engine: card threads + queues + two-ended
  // stealing.
  auto update_columns = [&](std::size_t i0, std::size_t pw, std::size_t c0,
                            std::size_t ncols) {
    blas::update_stage_columns<double>(
        a.view(), piv, i0, pw, c0, ncols, popt,
        [&](MatrixView<const double> l21, MatrixView<const double> u,
            MatrixView<double> c, const blas::PanelOptions&) {
          offload_gemm_functional(-1.0, l21, u, c, cfg.offload);
        });
  };

  if (!factor_panel(0)) return res;
  for (std::size_t i0 = 0; i0 < n; i0 += nb) {
    const std::size_t pw = std::min(nb, n - i0);
    // Apply this stage's interchanges to the columns LEFT of the panel in a
    // single fused pass.
    if (i0 > 0)
      blas::laswp_fused<double>(a.block(0, 0, n, i0), piv, i0, i0 + pw,
                                /*pool=*/nullptr, popt.laswp_col_chunk);
    const std::size_t trail0 = i0 + pw;
    if (trail0 >= n) break;
    const std::size_t next_pw = std::min(nb, n - trail0);
    const bool can_lookahead = cfg.scheme != FunctionalScheme::kNoLookahead &&
                               trail0 + next_pw <= n;
    if (cfg.scheme == FunctionalScheme::kPipelined && can_lookahead) {
      // Pipelined look-ahead (Figure 8c): swap + solve + update advance one
      // column subset at a time. The next panel's columns form the first
      // subset; once they are updated, the panel factors asynchronously
      // while the remaining subsets stream through.
      update_columns(i0, pw, trail0, next_pw);
      ++res.pipelined_subsets;
      auto panel_future =
          std::async(std::launch::async, [&] { return factor_panel(trail0); });
      const std::size_t rest0 = trail0 + next_pw;
      const std::size_t rest = n - rest0;
      const int subsets = std::max(1, cfg.pipeline_subsets);
      const std::size_t chunk =
          std::max<std::size_t>(1, (rest + subsets - 1) / subsets);
      for (std::size_t c0 = rest0; c0 < n; c0 += chunk) {
        update_columns(i0, pw, c0, std::min(chunk, n - c0));
        ++res.pipelined_subsets;
      }
      if (!panel_future.get()) return res;
      ++res.lookahead_panels;
    } else if (can_lookahead) {
      // Basic look-ahead: free the next panel's columns first, then factor
      // them on a concurrent "host" thread while the offload engine chews
      // the rest of the trailing update.
      update_columns(i0, pw, trail0, next_pw);
      auto panel_future =
          std::async(std::launch::async, [&] { return factor_panel(trail0); });
      update_columns(i0, pw, trail0 + next_pw, n - trail0 - next_pw);
      if (!panel_future.get()) return res;
      ++res.lookahead_panels;
    } else {
      update_columns(i0, pw, trail0, n - trail0);
      if (!factor_panel(trail0)) return res;
    }
  }

  // Solve and check.
  std::vector<double> b(n), x(n);
  util::Rng rng(seed ^ 0xb0b);
  for (auto& v : b) v = rng.next_centered();
  x = b;
  blas::lu_solve_vector<double>(a.view(), ipiv, x);
  res.residual = blas::hpl_residual<double>(orig.view(), x, b);
  res.ok = res.residual < blas::kHplResidualThreshold;
  return res;
}

}  // namespace xphi::core
