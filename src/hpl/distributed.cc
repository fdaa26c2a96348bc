#include "hpl/distributed.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <mutex>
#include <numeric>
#include <type_traits>

#include "blas/getrf.h"
#include "blas/residual.h"
#include "hpl/mixed.h"
#include "net/world.h"
#include "trace/timeline.h"
#include "util/rng.h"

namespace xphi::hpl {

namespace {

using net::Comm;
using net::Payload;
using net::Request;
using trace::SpanKind;
using util::Matrix;
using util::MatrixView;

// Message tags: stage bk owns the window [bk, bk + 1) * kTagStride. The U
// broadcast takes two slots: kTagU carries the full-width block (kNone,
// kBasic) or the pipelined next-panel subset, kTagU + 1 the pipelined batch
// of the remaining subsets. The validation tail takes the first window past
// the last stage's: the factored-matrix gather (+0), the gathered solution's
// broadcast (+1) and the residual check's max-reduce (+2).
constexpr int kTagPanelGather = 0;
constexpr int kTagPanelBcast = 1;
constexpr int kTagSwap = 2;
constexpr int kTagU = 3;
constexpr int kTagStride = 5;
constexpr int kMaxSubsets = 16;  // clamp of pipeline_subsets

/// Global column range [g0, g1).
struct ColSpan {
  std::size_t g0 = 0, g1 = 0;
};

/// Stage bk's geometry: panel rows/columns [k0, k0 + pw), the process row
/// and column owning them, the root rank that factors the panel, and the
/// stage's tag window.
struct Stage {
  std::size_t k0 = 0, pw = 0;
  int prow = 0, pcol = 0, root = 0, tag = 0;
};

Stage stage_of(const BlockCyclic& dist, std::size_t bk) {
  const Grid& grid = dist.grid();
  Stage st;
  st.k0 = bk * dist.nb();
  st.pw = std::min(dist.nb(), dist.n() - st.k0);
  st.prow = static_cast<int>(bk % grid.p);
  st.pcol = static_cast<int>(bk % grid.q);
  st.root = grid.rank_of(st.prow, st.pcol);
  st.tag = static_cast<int>(bk) * kTagStride;
  return st;
}

// Every stage below is templated on the local scalar type T. All payloads
// stay std::vector<double>: a float widens to double exactly, so packing T
// values as doubles and narrowing on receipt is a bit-exact transport for
// T = float, and for T = double every cast is the identity — the fp64 path
// is instruction-for-instruction the pre-template code.
template <class T>
struct RankContext {
  const BlockCyclic& dist;
  Comm& comm;
  const DistributedHplOptions& options;
  blas::PanelOptions panel;  // options.panel, pool dropped
  int prow = 0, pcol = 0;
  Matrix<T> local;  // local block-cyclic share, row-major
  std::chrono::steady_clock::time_point epoch;
  std::vector<trace::Span>* spans = nullptr;  // this rank's lane (optional)

  std::size_t lrows() const { return dist.local_rows(prow); }
  std::size_t lcols() const { return dist.local_cols(pcol); }

  /// First local row whose global index is >= g.
  std::size_t local_row_lower_bound(std::size_t g) const {
    return dist.first_local_row(prow, g);
  }
  std::size_t local_col_lower_bound(std::size_t g) const {
    return dist.first_local_col(pcol, g);
  }

  /// Every rank of the grid, in rank order (the collectives' group).
  std::vector<int> everyone() const {
    std::vector<int> all(dist.grid().ranks());
    std::iota(all.begin(), all.end(), 0);
    return all;
  }

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
  }
  void record(SpanKind kind, double t0) {
    if (spans != nullptr)
      spans->push_back(
          {static_cast<std::size_t>(comm.rank()), kind, t0, now()});
  }
};

/// Local column intervals [lo, hi) covered by the global ranges, in order.
template <class T>
std::vector<std::pair<std::size_t, std::size_t>> local_intervals(
    const RankContext<T>& ctx, const std::vector<ColSpan>& ranges) {
  std::vector<std::pair<std::size_t, std::size_t>> iv;
  for (const ColSpan& r : ranges) {
    const std::size_t lo = ctx.local_col_lower_bound(r.g0);
    const std::size_t hi = ctx.local_col_lower_bound(r.g1);
    if (hi > lo) iv.emplace_back(lo, hi);
  }
  return iv;
}

/// Gathers stage bk's panel to its root and factors it there. Panel-column
/// ranks send their rows with global index >= k0 as
/// [count, (global_row, pw values)...]; the root assembles them, factors in
/// the local scalar and returns the broadcast packet
/// [pw absolute pivots | (n-k0) x pw factors]. Empty on every other rank.
template <class T>
Payload gather_and_factor(RankContext<T>& ctx, std::size_t bk) {
  const Stage st = stage_of(ctx.dist, bk);
  if (ctx.pcol != st.pcol) return {};
  const std::size_t n = ctx.dist.n();
  const std::size_t lc0 = ctx.local_col_lower_bound(st.k0);
  const std::size_t lr0 = ctx.local_row_lower_bound(st.k0);
  Payload mine;
  mine.push_back(static_cast<double>(ctx.lrows() - lr0));
  for (std::size_t lr = lr0; lr < ctx.lrows(); ++lr) {
    mine.push_back(static_cast<double>(ctx.dist.global_row(ctx.prow, lr)));
    for (std::size_t c = 0; c < st.pw; ++c)
      mine.push_back(static_cast<double>(ctx.local(lr, lc0 + c)));
  }
  const int gather_tag = st.tag + kTagPanelGather;
  if (ctx.comm.rank() != st.root) {
    ctx.comm.send(st.root, gather_tag, std::move(mine));
    return {};
  }

  std::vector<T> assembled((n - st.k0) * st.pw, T(0));
  auto unpack = [&](const Payload& msg) {
    std::size_t pos = 0;
    const std::size_t count = static_cast<std::size_t>(msg[pos++]);
    for (std::size_t r = 0; r < count; ++r) {
      const std::size_t g = static_cast<std::size_t>(msg[pos++]);
      for (std::size_t c = 0; c < st.pw; ++c)
        assembled[(g - st.k0) * st.pw + c] = static_cast<T>(msg[pos + c]);
      pos += st.pw;
    }
  };
  const double t_gather = ctx.now();
  unpack(mine);
  for (int prow = 0; prow < ctx.dist.grid().p; ++prow) {
    const int src = ctx.dist.grid().rank_of(prow, st.pcol);
    if (src != st.root) unpack(ctx.comm.recv(src, gather_tag));
  }
  ctx.record(SpanKind::kBroadcast, t_gather);

  const double t_factor = ctx.now();
  std::vector<std::size_t> piv(st.pw);
  const bool ok = blas::factor_stage_panel<T>(
      MatrixView<T>(assembled.data(), n - st.k0, st.pw, st.pw), piv, st.k0,
      ctx.panel);
  assert(ok && "singular panel in distributed HPL");
  (void)ok;
  ctx.record(SpanKind::kPanelFactor, t_factor);

  Payload packet;
  packet.reserve(st.pw + assembled.size());
  for (const std::size_t p : piv) packet.push_back(static_cast<double>(p));
  for (const T v : assembled) packet.push_back(static_cast<double>(v));
  return packet;
}

/// Blocking panel production for stage bk (stage 0, and every stage under
/// kNone): gather to the stage root, factor there, and broadcast the packet
/// to every rank.
template <class T>
Payload produce_packet_blocking(RankContext<T>& ctx, std::size_t bk) {
  const Stage st = stage_of(ctx.dist, bk);
  Payload packet = gather_and_factor(ctx, bk);
  const double t0 = ctx.now();
  // Every rank derives the same packet length from the stage geometry
  // ([pw pivots | (n-k0) x pw factors]), which is what lets the adaptive
  // dispatch agree group-wide before receivers hold any bytes.
  packet = ctx.comm.bcast_auto(st.root, ctx.everyone(), std::move(packet),
                               st.tag + kTagPanelBcast,
                               st.pw + (ctx.dist.n() - st.k0) * st.pw);
  ctx.record(SpanKind::kBroadcast, t0);
  return packet;
}

/// Pending look-ahead panel: the packet itself on the factoring root, an
/// irecv Request for it everywhere else.
struct PanelLaunch {
  Payload packet;
  Request req;
};

/// Look-ahead start of stage nbk's panel: the gather/factor of
/// gather_and_factor, then the root isends the packet to every other rank
/// (flat fan-out — the pipelined broadcast depth is the simulator's
/// concern, the functional path needs the overlap structure) while everyone
/// else posts an irecv and keeps computing.
template <class T>
PanelLaunch start_panel(RankContext<T>& ctx, std::size_t nbk) {
  const Stage st = stage_of(ctx.dist, nbk);
  const int tag = st.tag + kTagPanelBcast;
  PanelLaunch launch;
  launch.packet = gather_and_factor(ctx, nbk);
  if (ctx.comm.rank() != st.root) {
    launch.req = ctx.comm.irecv(st.root, tag);
    return launch;
  }
  const double t0 = ctx.now();
  for (int r = 0; r < ctx.dist.grid().ranks(); ++r)
    if (r != st.root) ctx.comm.isend(r, tag, launch.packet);
  ctx.record(SpanKind::kBroadcast, t0);
  return launch;
}

template <class T>
Payload finish_panel(RankContext<T>& ctx, PanelLaunch launch) {
  if (!launch.packet.empty()) return std::move(launch.packet);
  const double t0 = ctx.now();
  Payload packet = launch.req.take();
  ctx.record(SpanKind::kBroadcast, t0);
  return packet;
}

/// Writes the factored panel rows back into their owners' local storage.
template <class T>
void write_back_panel(RankContext<T>& ctx, std::size_t k0, std::size_t pw,
                      const double* panel_data) {
  const std::size_t lc0 = ctx.local_col_lower_bound(k0);
  const std::size_t lr0 = ctx.local_row_lower_bound(k0);
  for (std::size_t lr = lr0; lr < ctx.lrows(); ++lr) {
    const std::size_t g = ctx.dist.global_row(ctx.prow, lr);
    for (std::size_t c = 0; c < pw; ++c)
      ctx.local(lr, lc0 + c) = static_cast<T>(panel_data[(g - k0) * pw + c]);
  }
}

/// Applies the stage's row interchanges to the local columns covered by
/// `ranges` (global column spans; the pw panel columns must not be inside
/// them — they were already swapped during the panel factorization). Each
/// cross-row swap is a point-to-point exchange between the two owner rows.
template <class T>
void swap_rows_ranges(RankContext<T>& ctx, int tag, const double* ipiv_stage,
                      std::size_t k0, std::size_t pw,
                      const std::vector<ColSpan>& ranges) {
  const BlockCyclic& dist = ctx.dist;
  const auto iv = local_intervals(ctx, ranges);
  std::size_t width = 0;
  for (const auto& [lo, hi] : iv) width += hi - lo;
  if (width == 0) return;  // consistent across the process column

  const double t0 = ctx.now();
  // Rank-local swaps are batched into a SwapPlan and applied in one fused
  // cache-blocked pass per flush (blas::laswp_fused over each local column
  // interval). Buffered swaps commute with remote exchanges this rank does
  // not participate in; a remote exchange this rank *does* join may read or
  // write a buffered row, so the plan flushes right before it.
  blas::SwapPlan local_plan;
  auto flush_local = [&] {
    if (local_plan.empty()) return;
    local_plan.finalize();  // compose once, apply to every interval
    for (const auto& [lo, hi] : iv)
      blas::laswp_fused<T>(
          ctx.local.view().block(0, lo, ctx.local.rows(), hi - lo),
          local_plan, /*pool=*/nullptr, ctx.panel.laswp_col_chunk);
    local_plan = blas::SwapPlan{};
  };
  for (std::size_t t = 0; t < pw; ++t) {
    const std::size_t r1 = k0 + t;
    const std::size_t r2 = static_cast<std::size_t>(ipiv_stage[t]);
    if (r1 == r2) continue;
    const int o1 = dist.owner_prow(r1);
    const int o2 = dist.owner_prow(r2);
    if (o1 == o2) {
      if (ctx.prow == o1)
        local_plan.pairs.emplace_back(dist.local_row(r1), dist.local_row(r2));
    } else if (ctx.prow == o1 || ctx.prow == o2) {
      flush_local();
      const std::size_t lr = dist.local_row(ctx.prow == o1 ? r1 : r2);
      const int partner =
          dist.grid().rank_of(ctx.prow == o1 ? o2 : o1, ctx.pcol);
      Payload out;
      out.reserve(width);
      for (const auto& [lo, hi] : iv)
        for (std::size_t c = lo; c < hi; ++c)
          out.push_back(static_cast<double>(ctx.local(lr, c)));
      ctx.comm.send(partner, tag, std::move(out));
      const Payload in = ctx.comm.recv(partner, tag);
      std::size_t pos = 0;
      for (const auto& [lo, hi] : iv)
        for (std::size_t c = lo; c < hi; ++c)
          ctx.local(lr, c) = static_cast<T>(in[pos++]);
    }
  }
  flush_local();
  ctx.record(SpanKind::kRowSwap, t0);
}

/// One U block in flight: the owning process row holds the solved payload,
/// everyone else a pending irecv. `lc0`/`width` locate the columns locally.
struct USlot {
  bool owner = false;
  std::size_t lc0 = 0, width = 0;
  Payload u;
  Request req;
};

/// Owner-row U solve: L11 * U = A12 in place on the stage rows of the
/// slot's local columns, with L11 taken from the broadcast packet (narrowed
/// to the local scalar). Returns the solved block, widened for transport.
template <class T>
Payload solve_local_u(RankContext<T>& ctx, const Stage& st,
                      const double* panel_data, const USlot& slot) {
  const double t0 = ctx.now();
  Matrix<T> l11(st.pw, st.pw);
  for (std::size_t r = 0; r < st.pw; ++r)
    for (std::size_t c = 0; c < st.pw; ++c)
      l11(r, c) = static_cast<T>(panel_data[r * st.pw + c]);
  const auto u = ctx.local.view().block(ctx.dist.local_row(st.k0), slot.lc0,
                                        st.pw, slot.width);
  blas::trsm_left_lower_unit<T>(l11.view(), u);
  ctx.record(SpanKind::kTrsm, t0);
  Payload out;
  out.reserve(st.pw * slot.width);
  for (std::size_t r = 0; r < st.pw; ++r)
    for (std::size_t c = 0; c < slot.width; ++c)
      out.push_back(static_cast<double>(u(r, c)));
  return out;
}

/// Locates the U slot of global columns `cols` on this rank.
template <class T>
USlot u_slot(const RankContext<T>& ctx, const Stage& st, ColSpan cols) {
  USlot slot;
  slot.lc0 = ctx.local_col_lower_bound(cols.g0);
  slot.width = ctx.local_col_lower_bound(cols.g1) - slot.lc0;
  slot.owner = ctx.prow == st.prow;
  return slot;
}

/// Owner-row half of a pipelined U start: solves the slot's U block and
/// isends it down the process column.
template <class T>
void owner_solve_and_send_u(RankContext<T>& ctx, const Stage& st, int subset,
                            const double* panel_data, USlot& slot) {
  slot.u = solve_local_u(ctx, st, panel_data, slot);
  const double t0 = ctx.now();
  for (int prow = 0; prow < ctx.dist.grid().p; ++prow)
    if (prow != ctx.prow)
      ctx.comm.isend(ctx.dist.grid().rank_of(prow, ctx.pcol),
                     st.tag + kTagU + subset, slot.u);
  ctx.record(SpanKind::kBroadcast, t0);
}

/// Pipelined U start for one column subset: the owner row solves and
/// isends (unless `defer_solve` — then owner_solve_and_send_u must be called
/// later, letting the wide solve slide off the critical path); other rows
/// post an irecv. No-op when the subset has no local columns (consistent
/// across the process column).
template <class T>
USlot start_u(RankContext<T>& ctx, const Stage& st, int subset,
              const double* panel_data, ColSpan cols,
              bool defer_solve = false) {
  USlot slot = u_slot(ctx, st, cols);
  if (slot.width == 0) return slot;
  if (!slot.owner)
    slot.req = ctx.comm.irecv(ctx.dist.grid().rank_of(st.prow, ctx.pcol),
                              st.tag + kTagU + subset);
  else if (!defer_solve)
    owner_solve_and_send_u(ctx, st, subset, panel_data, slot);
  return slot;
}

/// Completes a pipelined U slot: non-owners block on the irecv here (the
/// recorded kBroadcast span is exactly the exposed transfer time).
template <class T>
void wait_u(RankContext<T>& ctx, USlot& slot) {
  if (slot.owner || slot.width == 0) return;
  const double t0 = ctx.now();
  slot.u = slot.req.take();
  ctx.record(SpanKind::kBroadcast, t0);
}

/// Blocking full-width U solve + broadcast down each process column (the
/// kNone/kBasic path). Returns a USlot with the payload in hand.
template <class T>
USlot solve_and_bcast_u(RankContext<T>& ctx, const Stage& st,
                        const double* panel_data, ColSpan cols) {
  USlot slot = u_slot(ctx, st, cols);
  if (slot.width == 0) return slot;
  if (slot.owner) slot.u = solve_local_u(ctx, st, panel_data, slot);
  slot.owner = true;  // payload in hand after the broadcast below
  std::vector<int> col_group;
  for (int prow = 0; prow < ctx.dist.grid().p; ++prow)
    col_group.push_back(ctx.dist.grid().rank_of(prow, ctx.pcol));
  const double t0 = ctx.now();
  // The whole process column shares pcol, hence the same local width — the
  // pw x width hint is identical down the group.
  slot.u = ctx.comm.bcast_auto(ctx.dist.grid().rank_of(st.prow, ctx.pcol),
                               col_group, std::move(slot.u), st.tag + kTagU,
                               st.pw * slot.width);
  ctx.record(SpanKind::kBroadcast, t0);
  return slot;
}

/// L21 rows of the broadcast panel owned by this rank (trailing rows only).
template <class T>
Matrix<T> build_l21(const RankContext<T>& ctx, std::size_t k0,
                    std::size_t pw, const double* panel_data,
                    std::size_t lr_trail, std::size_t m_loc) {
  Matrix<T> l21(m_loc, pw);
  for (std::size_t r = 0; r < m_loc; ++r) {
    const std::size_t g = ctx.dist.global_row(ctx.prow, lr_trail + r);
    for (std::size_t c = 0; c < pw; ++c)
      l21(r, c) = static_cast<T>(panel_data[(g - k0) * pw + c]);
  }
  return l21;
}

/// Local trailing update A22 -= L21 * U restricted to the columns of `slot`
/// that fall inside `cols`. Column subsets accumulate each element over k
/// in the same order as the full-width update (see gemm_tiled.h), so the
/// split is bitwise-neutral.
template <class T>
void update_range(RankContext<T>& ctx, std::size_t pw, const Matrix<T>& l21,
                  std::size_t lr_trail, std::size_t m_loc, const USlot& slot,
                  ColSpan cols) {
  if (m_loc == 0 || slot.width == 0) return;
  const std::size_t lo = ctx.local_col_lower_bound(cols.g0);
  const std::size_t hi = ctx.local_col_lower_bound(cols.g1);
  if (hi <= lo) return;
  assert(lo >= slot.lc0 && hi <= slot.lc0 + slot.width);
  const double t0 = ctx.now();
  MatrixView<const double> u(slot.u.data() + (lo - slot.lc0), pw, hi - lo,
                             slot.width);
  auto a22 = ctx.local.block(lr_trail, lo, m_loc, hi - lo);
  if (ctx.options.use_offload_engine) {
    if constexpr (std::is_same_v<T, double>) {
      core::offload_gemm_functional(-1.0, l21.view(), u, a22,
                                    ctx.options.offload);
    } else {
      // The offload engine computes in fp64. Widen the fp32 operands and
      // the update target (exact), run the engine, narrow the result back —
      // deterministic for a fixed config, so clean and faulted mixed runs
      // still match bitwise.
      Matrix<double> l21d(m_loc, pw);
      for (std::size_t r = 0; r < m_loc; ++r)
        for (std::size_t c = 0; c < pw; ++c)
          l21d(r, c) = static_cast<double>(l21(r, c));
      Matrix<double> a22d(m_loc, hi - lo);
      for (std::size_t r = 0; r < m_loc; ++r)
        for (std::size_t c = 0; c < hi - lo; ++c)
          a22d(r, c) = static_cast<double>(a22(r, c));
      core::offload_gemm_functional(-1.0, l21d.view(), u, a22d.view(),
                                    ctx.options.offload);
      for (std::size_t r = 0; r < m_loc; ++r)
        for (std::size_t c = 0; c < hi - lo; ++c)
          a22(r, c) = static_cast<T>(a22d(r, c));
    }
  } else if constexpr (std::is_same_v<T, double>) {
    blas::GemmTiledUpdate{}(l21.view(), u, a22, ctx.panel);
  } else {
    // Narrow the (exactly widened) U payload back to the local scalar;
    // packing from the contiguous copy yields the same packed operand as
    // packing the strided view would.
    Matrix<T> um(pw, hi - lo);
    for (std::size_t r = 0; r < pw; ++r)
      for (std::size_t c = 0; c < hi - lo; ++c)
        um(r, c) = static_cast<T>(u(r, c));
    blas::GemmTiledUpdate{}(l21.view(), um.view(), a22, ctx.panel);
  }
  ctx.record(SpanKind::kGemm, t0);
}

/// One LU stage under any look-ahead scheme (Figure 8). Consumes this
/// stage's factored packet and returns the next stage's:
///   kNone      — one full-width swap, U solve/broadcast and trailing
///                update, then the next panel's blocking gather/factor/
///                broadcast (Figure 8a: the same loop with no overlap);
///   kBasic     — the next panel's columns are updated first and its panel
///                started (isend) before the rest of the update, which hides
///                the factorization (Figure 8b);
///   kPipelined — additionally, the next panel's U block is solved and sent
///                on its own, and the remaining subsets' U travels as one
///                coalesced message per process row whose wide DTRSM the
///                owner row defers until after the panel launch, consumed
///                subset by subset (Figure 8c).
/// The row swap is a single exchange per rank pair covering every subset at
/// once (permutation-identical to per-subset swaps), and no scheme changes
/// a per-element accumulation order, so all three produce the same bits.
template <class T>
Payload run_stage(RankContext<T>& ctx, std::size_t bk, Payload packet,
                  std::vector<double>& ipiv_all) {
  const std::size_t n = ctx.dist.n();
  const Stage st = stage_of(ctx.dist, bk);
  const std::size_t k0 = st.k0, pw = st.pw;
  const Lookahead la = ctx.options.lookahead;

  const double* ipiv_stage = packet.data();
  const double* panel_data = packet.data() + pw;
  for (std::size_t t = 0; t < pw; ++t) ipiv_all.push_back(ipiv_stage[t]);
  if (ctx.pcol == st.pcol) write_back_panel(ctx, k0, pw, panel_data);

  const std::size_t trail_g0 = k0 + pw;
  if (trail_g0 >= n) {
    // Last stage: still apply the interchanges to the factored left part.
    swap_rows_ranges(ctx, st.tag + kTagSwap, ipiv_stage, k0, pw, {{0, k0}});
    return {};
  }

  // Column subsets of the trailing matrix. Under look-ahead subset 0 is the
  // next panel's columns, so the next panel can start right after their
  // update; kPipelined splits the rest into further subsets the DTRSM /
  // U-broadcast stream over. kNone updates the trailing matrix in one piece.
  const std::size_t split =
      la == Lookahead::kNone ? n : std::min(n, trail_g0 + ctx.dist.nb());
  std::vector<ColSpan> subsets{{trail_g0, split}};
  if (split < n) {
    std::size_t parts = 1;
    if (la == Lookahead::kPipelined) {
      const int want =
          std::clamp(ctx.options.pipeline_subsets, 1, kMaxSubsets) - 1;
      parts = std::clamp<std::size_t>(want, 1, n - split);
    }
    for (std::size_t i = 0; i < parts; ++i) {
      const std::size_t w = n - split;
      const std::size_t lo = split + i * w / parts;
      const std::size_t hi = split + (i + 1) * w / parts;
      if (hi > lo) subsets.push_back({lo, hi});
    }
  }
  const std::size_t S = subsets.size();

  const std::size_t lr_trail = ctx.local_row_lower_bound(trail_g0);
  const std::size_t m_loc = ctx.lrows() - lr_trail;
  const Matrix<T> l21 =
      m_loc > 0 ? build_l21(ctx, k0, pw, panel_data, lr_trail, m_loc)
                : Matrix<T>();

  swap_rows_ranges(ctx, st.tag + kTagSwap, ipiv_stage, k0, pw,
                   {{0, k0}, {trail_g0, n}});
  USlot first, batch;
  if (la == Lookahead::kPipelined) {
    first = start_u(ctx, st, 0, panel_data, subsets[0]);
    if (S > 1)
      batch = start_u(ctx, st, 1, panel_data, {subsets[1].g0, n},
                      /*defer_solve=*/true);
    wait_u(ctx, first);
  } else {
    first = solve_and_bcast_u(ctx, st, panel_data, {trail_g0, n});
  }
  update_range(ctx, pw, l21, lr_trail, m_loc, first, subsets[0]);
  PanelLaunch launch;
  if (la != Lookahead::kNone) launch = start_panel(ctx, bk + 1);
  if (la == Lookahead::kPipelined && S > 1) {
    if (batch.owner && batch.width > 0)
      owner_solve_and_send_u(ctx, st, 1, panel_data, batch);
    wait_u(ctx, batch);
  }
  const USlot& rest = la == Lookahead::kPipelined ? batch : first;
  for (std::size_t s = 1; s < S; ++s)
    update_range(ctx, pw, l21, lr_trail, m_loc, rest, subsets[s]);
  if (la == Lookahead::kNone) return produce_packet_blocking(ctx, bk + 1);
  return finish_panel(ctx, std::move(launch));
}

/// One distributed block triangular sweep over the block-cyclic factors:
/// forward substitution with the unit-lower L (`lower`, blocks ascending)
/// or backward with the non-unit upper U (blocks descending). Each block's
/// process row reduces its partial sums to the diagonal owner, which solves
/// the diagonal block and broadcasts it. Arithmetic runs in the local scalar
/// T — under Precision::kMixed exactly "solve through the fp32 factors".
/// Uses tags [base, base + 2 * blocks).
template <class T>
std::vector<T> triangular_sweep(RankContext<T>& ctx,
                                const std::vector<T>& rhs, bool lower,
                                int base) {
  const BlockCyclic& dist = ctx.dist;
  const Grid& grid = dist.grid();
  const std::size_t blocks = dist.num_blocks();
  const std::vector<int> everyone = ctx.everyone();
  std::vector<T> x(dist.n(), T(0));
  for (std::size_t step = 0; step < blocks; ++step) {
    const std::size_t k = lower ? step : blocks - 1 - step;
    const Stage st = stage_of(dist, k);
    const std::size_t k0 = st.k0, pw = st.pw;
    const int tag = base + static_cast<int>(k) * 2;
    if (ctx.prow == st.prow) {
      // Partial sum over this rank's local columns already solved: global
      // index < k0 (forward) or >= k0 + pw (backward).
      std::vector<T> partial(pw, T(0));
      const std::size_t lr0 = dist.local_row(k0);
      const std::size_t lc_begin =
          lower ? 0 : ctx.local_col_lower_bound(k0 + pw);
      const std::size_t lc_end =
          lower ? ctx.local_col_lower_bound(k0) : ctx.lcols();
      for (std::size_t lc = lc_begin; lc < lc_end; ++lc) {
        const std::size_t g = dist.global_col(ctx.pcol, lc);
        for (std::size_t r = 0; r < pw; ++r)
          partial[r] += ctx.local(lr0 + r, lc) * x[g];
      }
      if (ctx.comm.rank() != st.root) {
        Payload out(pw);
        for (std::size_t r = 0; r < pw; ++r)
          out[r] = static_cast<double>(partial[r]);
        ctx.comm.send(st.root, tag, std::move(out));
      } else {
        for (int pcol = 0; pcol < grid.q; ++pcol) {
          const int src = grid.rank_of(st.prow, pcol);
          if (src == st.root) continue;
          const Payload other = ctx.comm.recv(src, tag);
          for (std::size_t r = 0; r < pw; ++r)
            partial[r] += static_cast<T>(other[r]);
        }
        // Solve the diagonal block: unit-lower rows ascending, or upper
        // rows descending with the division by the diagonal.
        const std::size_t lc0 = dist.local_col(k0);
        for (std::size_t i = 0; i < pw; ++i) {
          const std::size_t r = lower ? i : pw - 1 - i;
          T acc = rhs[k0 + r] - partial[r];
          const std::size_t j0 = lower ? 0 : r + 1;
          const std::size_t j1 = lower ? r : pw;
          for (std::size_t j = j0; j < j1; ++j)
            acc -= ctx.local(lr0 + r, lc0 + j) * x[k0 + j];
          x[k0 + r] = lower ? acc : acc / ctx.local(lr0 + r, lc0 + r);
        }
      }
    }
    // Broadcast the solved block to everyone (pw doubles: stays tree-side
    // of any sane crossover, but routed through the dispatcher regardless).
    Payload block;
    if (ctx.comm.rank() == st.root)
      for (std::size_t r = 0; r < pw; ++r)
        block.push_back(static_cast<double>(x[k0 + r]));
    block = ctx.comm.bcast_auto(st.root, everyone, std::move(block), tag + 1,
                                pw);
    for (std::size_t r = 0; r < pw; ++r) x[k0 + r] = static_cast<T>(block[r]);
  }
  return x;
}

/// Distributed solve of L U x = rhs (rhs already permuted and replicated):
/// the forward then the backward sweep, and the exact widening of the T
/// result. `solve_base` is the first message tag of the solve's window
/// ((4*blocks + 4)-tags wide); the refinement loop re-invokes the solve with
/// a fresh window per iteration.
template <class T>
std::vector<double> distributed_solve(RankContext<T>& ctx,
                                      const std::vector<double>& rhs,
                                      int solve_base) {
  const int blocks = static_cast<int>(ctx.dist.num_blocks());
  const std::vector<T> b(rhs.begin(), rhs.end());
  const std::vector<T> y = triangular_sweep(ctx, b, true, solve_base);
  const std::vector<T> x =
      triangular_sweep(ctx, y, false, solve_base + blocks * 2 + 4);
  return std::vector<double>(x.begin(), x.end());
}

/// Allreduced fp64 residual data for the solution x: the scaled HPL residual
/// (the gate value) and the residual vector r = b - A x, both computed from
/// per-rank regenerated entries of the ORIGINAL matrix — no gathered A.
/// Deterministic: the ring allreduce combines partial sums in a fixed order,
/// so every rank (and every clean/faulted rerun) gets identical doubles.
struct DistResidual {
  double scaled = 0;
  std::vector<double> r;
};

template <class T>
DistResidual distributed_residual(RankContext<T>& ctx,
                                  const std::vector<double>& x,
                                  const std::vector<double>& b,
                                  std::uint64_t seed, int tag) {
  const BlockCyclic& dist = ctx.dist;
  const std::size_t n = dist.n();
  Payload acc(2 * n, 0.0);  // [0, n): partial A*x; [n, 2n): partial |A| row sums
  for (std::size_t lr = 0; lr < ctx.lrows(); ++lr) {
    const std::size_t gr = dist.global_row(ctx.prow, lr);
    for (std::size_t lc = 0; lc < ctx.lcols(); ++lc) {
      const std::size_t gc = dist.global_col(ctx.pcol, lc);
      const double a = util::hpl_entry(seed, gr, gc);
      acc[gr] += a * x[gc];
      acc[n + gr] += std::abs(a);
    }
  }
  acc = ctx.comm.allreduce(ctx.everyone(), std::move(acc), tag);
  DistResidual res;
  res.r.resize(n);
  blas::ResidualMaxima m;
  for (std::size_t i = 0; i < n; ++i) {
    res.r[i] = b[i] - acc[i];
    m.r_inf = std::max(m.r_inf, std::abs(acc[i] - b[i]));
    m.a_inf = std::max(m.a_inf, acc[n + i]);
  }
  res.scaled = blas::scale_residual<double>(m, x, b);
  return res;
}

/// Writes one rank's local share into the gathered matrix. The global
/// columns of a local column block are contiguous, so each local row lands
/// as nb-wide runs.
template <class S>
void scatter_share(const BlockCyclic& dist, int prow, int pcol,
                   MatrixView<const S> share, Matrix<double>& full) {
  const std::size_t nb = dist.nb();
  for (std::size_t lr = 0; lr < share.rows(); ++lr) {
    const S* src = share.row(lr);
    double* dst = full.view().row(dist.global_row(prow, lr));
    for (std::size_t lc = 0; lc < share.cols(); lc += nb) {
      const std::size_t w = std::min(nb, share.cols() - lc);
      std::copy(src + lc, src + lc + w, dst + dist.global_col(pcol, lc));
    }
  }
}

/// blas::hpl_residual of the gathered solution x, row-partitioned: every
/// rank regenerates a contiguous range of rows of the ORIGINAL matrix and
/// folds them into the check's two maxima, which are max-reduced to rank 0.
/// A maximum is exact, so rank 0's value equals the sequential check's bit
/// for bit; the other ranks return 0.
double gathered_residual(RankContext<double>& ctx, const Payload& x,
                         const std::vector<double>& b, std::uint64_t seed,
                         int tag) {
  const std::size_t n = ctx.dist.n();
  const auto ranks = static_cast<std::size_t>(ctx.dist.grid().ranks());
  const auto rank = static_cast<std::size_t>(ctx.comm.rank());
  blas::ResidualMaxima m;
  std::vector<double> row(n);
  for (std::size_t i = n * rank / ranks; i < n * (rank + 1) / ranks; ++i) {
    for (std::size_t j = 0; j < n; ++j) row[j] = util::hpl_entry(seed, i, j);
    blas::residual_row<double>(row.data(), x, b[i], m);
  }
  const Payload max = ctx.comm.reduce(0, ctx.everyone(), {m.r_inf, m.a_inf},
                                      tag, net::ReduceOp::kMax);
  if (rank != 0) return 0;
  return blas::scale_residual<double>({max[0], max[1]}, x, b);
}

/// The whole per-rank program: fill, factor, solve, (mixed: refine),
/// validate. T = double is the classic fp64 benchmark, bit-for-bit the
/// pre-template behavior; T = float is the mixed-precision path.
template <class T>
void rank_main(Comm& comm, const BlockCyclic& dist, const Grid& grid,
               const DistributedHplOptions& options, std::uint64_t seed,
               std::chrono::steady_clock::time_point epoch,
               std::vector<trace::Span>* spans, DistributedHplResult& result,
               std::mutex& result_mu) {
  const std::size_t n = dist.n();
  RankContext<T> ctx{dist, comm, options, options.panel,
                     grid.prow_of(comm.rank()), grid.pcol_of(comm.rank()),
                     {}, epoch, spans};
  ctx.panel.pool = nullptr;  // ranks factor serially
  ctx.local = Matrix<T>(ctx.lrows(), ctx.lcols());
  // Fill from the position-stable generator: each rank produces exactly
  // the entries it owns (demoted to T — this cast IS the fp32 demotion
  // under Precision::kMixed).
  for (std::size_t lr = 0; lr < ctx.lrows(); ++lr)
    for (std::size_t lc = 0; lc < ctx.lcols(); ++lc)
      ctx.local(lr, lc) = static_cast<T>(
          util::hpl_entry(seed, dist.global_row(ctx.prow, lr),
                          dist.global_col(ctx.pcol, lc)));

  std::vector<double> ipiv_all;
  Payload packet = produce_packet_blocking(ctx, 0);
  for (std::size_t bk = 0; bk < dist.num_blocks(); ++bk)
    packet = run_stage(ctx, bk, std::move(packet), ipiv_all);

  // Distributed solve: permute the replicated right-hand side by the
  // recorded interchanges, then block forward/back substitution.
  std::vector<double> b(n);
  util::Rng brng(seed ^ 0xb0b);
  for (auto& v : b) v = brng.next_centered();
  auto permute = [&](std::vector<double> v) {
    for (std::size_t i = 0; i < n && i < ipiv_all.size(); ++i) {
      const std::size_t piv = static_cast<std::size_t>(ipiv_all[i]);
      if (piv != i) std::swap(v[i], v[piv]);
    }
    return v;
  };
  const int solve_base = static_cast<int>(dist.num_blocks() + 1) * kTagStride;
  std::vector<double> x_dist = distributed_solve(ctx, permute(b), solve_base);

  // Distributed residual check (every rank participates and agrees). Under
  // kMixed the same evaluation drives the refinement schedule: evaluate,
  // stop when the (unrelaxed) gate passes, otherwise permute r, solve the
  // correction through the fp32 factors in a fresh tag window, repeat.
  const int residual_tag =
      static_cast<int>(dist.num_blocks() + 1) * kTagStride +
      static_cast<int>(dist.num_blocks()) * 4 + 8;
  double dres = 0;
  int refine_iters = 0;
  std::vector<double> refine_trace;
  if constexpr (std::is_same_v<T, double>) {
    dres = distributed_residual(ctx, x_dist, b, seed, residual_tag).scaled;
  } else {
    const int iter_stride = static_cast<int>(dist.num_blocks()) * 4 + 16;
    const int max_iters = std::max(0, options.refine_max_iters);
    for (int it = 0;; ++it) {
      const int eval_tag = residual_tag + it * iter_stride;
      DistResidual rd = distributed_residual(ctx, x_dist, b, seed, eval_tag);
      refine_trace.push_back(rd.scaled);
      dres = rd.scaled;
      if (rd.scaled < blas::kHplResidualThreshold) break;
      if (it >= max_iters) break;  // cap hit; residual gate will fail below
      const std::vector<double> d =
          distributed_solve(ctx, permute(std::move(rd.r)), eval_tag + 4);
      for (std::size_t i = 0; i < n; ++i) x_dist[i] += d[i];
      ++refine_iters;
    }
  }

  // Gather the factored matrix to rank 0 for validation and solve. Each
  // rank's share travels as one message, packed a local row at a time.
  const int gather_tag = static_cast<int>(dist.num_blocks()) * kTagStride;
  if (comm.rank() != 0) {
    Payload mine;
    mine.reserve(ctx.lrows() * ctx.lcols());
    for (std::size_t lr = 0; lr < ctx.lrows(); ++lr) {
      const T* row = ctx.local.view().row(lr);
      mine.insert(mine.end(), row, row + ctx.lcols());
    }
    comm.send(0, gather_tag, std::move(mine));
  }
  Matrix<double> full;
  std::vector<std::size_t> ipiv;
  if (comm.rank() == 0) {
    full = Matrix<double>(n, n);
    scatter_share<T>(dist, ctx.prow, ctx.pcol, ctx.local.view(), full);
    for (int r = 1; r < grid.ranks(); ++r) {
      const Payload msg = comm.recv(r, gather_tag);
      const int prow = grid.prow_of(r), pcol = grid.pcol_of(r);
      scatter_share<double>(
          dist, prow, pcol,
          MatrixView<const double>(msg.data(), dist.local_rows(prow),
                                   dist.local_cols(pcol), dist.local_cols(pcol)),
          full);
    }
    ipiv.resize(n);
    for (std::size_t i = 0; i < n && i < ipiv_all.size(); ++i)
      ipiv[i] = static_cast<std::size_t>(ipiv_all[i]);
  }

  // Solve Ax = b on the gathered factors and check the residual against the
  // regenerated original matrix — the unrelaxed fp64 gate in both modes.
  double residual = 0;
  double agreement = 0;
  if constexpr (std::is_same_v<T, double>) {
    // Rank 0 solves on the gathered factors and broadcasts the solution;
    // every rank then checks its own row range of the original matrix.
    Payload x;
    if (comm.rank() == 0) {
      x = b;
      blas::lu_solve_vector<double>(full.view(), ipiv, x);
    }
    x = comm.bcast_auto(0, ctx.everyone(), std::move(x), gather_tag + 1, n);
    residual = gathered_residual(ctx, x, b, seed, gather_tag + 2);
    if (comm.rank() != 0) return;
    for (std::size_t i = 0; i < n; ++i)
      agreement = std::max(agreement, std::abs(x[i] - x_dist[i]));
  } else {
    if (comm.rank() != 0) return;
    // Sequential twin: narrow the gathered factors back to fp32 (exact) and
    // run the shared-memory refinement against the same fp64 system. Its
    // solution agrees with the distributed one to refinement accuracy; the
    // gate is evaluated on the distributed x.
    Matrix<double> orig(n, n);
    util::fill_hpl_matrix(orig.view(), seed);
    MixedFactors factors;
    factors.lu = Matrix<float>(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        factors.lu(r, c) = static_cast<float>(full(r, c));
    factors.ipiv = ipiv;
    MixedOptions mo;
    mo.max_refine_iters = options.refine_max_iters;
    const MixedSolveResult seq = refine_mixed(orig.view(), b, factors, mo);
    residual = blas::hpl_residual<double>(orig.view(), x_dist, b);
    for (std::size_t i = 0; i < n; ++i)
      agreement = std::max(agreement, std::abs(seq.x[i] - x_dist[i]));
  }

  std::lock_guard lk(result_mu);
  result.factored = std::move(full);
  result.ipiv = std::move(ipiv);
  result.x = std::move(x_dist);
  result.solve_agreement = agreement;
  result.residual = residual;
  result.distributed_residual = dres;
  result.refine_iterations = refine_iters;
  result.refine_trace = std::move(refine_trace);
  result.ok = residual < blas::kHplResidualThreshold;
}

}  // namespace

DistributedHplResult run_distributed_hpl(std::size_t n, std::size_t nb,
                                         Grid grid, std::uint64_t seed,
                                         const DistributedHplOptions& options) {
  DistributedHplResult result;
  BlockCyclic dist(n, nb, grid);
  net::World world(grid.ranks());
  world.set_recv_timeout(options.recv_timeout_seconds);
  world.set_fault_injector(options.injector);
  if (options.net_crossover_doubles != 0)
    world.set_collective_crossover_doubles(options.net_crossover_doubles);
  if (options.net_ring_segment != 0)
    world.set_ring_segment_doubles(options.net_ring_segment);

  // Per-rank span capture slots (each written only by its own rank thread;
  // merged into options.timeline after the world joins).
  std::vector<std::vector<trace::Span>> rank_spans(grid.ranks());
  const auto epoch = std::chrono::steady_clock::now();

  std::mutex result_mu;
  world.run([&](Comm& comm) {
    std::vector<trace::Span>* spans =
        options.timeline != nullptr ? &rank_spans[comm.rank()] : nullptr;
    if (options.precision == Precision::kMixed)
      rank_main<float>(comm, dist, grid, options, seed, epoch, spans, result,
                       result_mu);
    else
      rank_main<double>(comm, dist, grid, options, seed, epoch, spans, result,
                        result_mu);
  });

  result.comm_stats.reserve(grid.ranks());
  for (int r = 0; r < grid.ranks(); ++r)
    result.comm_stats.push_back(world.stats(r));
  if (options.timeline != nullptr)
    for (const auto& spans : rank_spans)
      for (const trace::Span& s : spans)
        options.timeline->record(s.lane, s.kind, s.t0, s.t1);
  return result;
}

}  // namespace xphi::hpl
