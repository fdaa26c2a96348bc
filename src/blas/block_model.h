// Analytic cache-aware derivation of the GEMM blocking parameters
// (mc, kc, nc) from probed cache geometry and the selected M_r x N_r
// micro-kernel — the co-design approach of Martínez et al. (PAPERS.md):
// instead of black-box searching the whole blocking space, compute the
// point the cache model says is optimal.
//
// Constraints (the classic Goto/BLIS way-splitting model):
//
//   kc: the A micro-panel (Mr x kc) and B micro-panel (kc x Nr) live in L1
//       together while the kernel streams k. Split the ways between them in
//       proportion to their footprints, reserving one way for the C tile
//       and the streams: with S sets of L-byte lines and W ways,
//         kc = min( W_A·S·L / (Mr·e),  W_B·S·L / (Nr·e) ),
//         W_A = round((W-1)·Mr/(Mr+Nr)), W_B = (W-1) - W_A.
//   mc: the packed A block (mc x kc) stays L2-resident across the whole
//       B panel sweep, at (W2-1)/W2 occupancy (one way's worth of L2 keeps
//       servicing the B/C streams):
//         mc = (L2·(W2-1)/W2) / (kc·e), rounded down to an Mr multiple.
//   nc: the packed B panel (kc x nc) is bounded by TLB reach at half
//       occupancy (the other half covers A/C pages), rounded to an Nr
//       multiple:
//         nc = (reach/2) / (kc·e).
//
// Every output is clamped to a usable floor, so degenerate probes (tiny
// reported caches, zero associativity) still produce a runnable blocking.
// mc/nc map to GemmOptions mc/nc and kc to its chunk_k. Note kc *changes
// numerics* (each k-chunk is a separately rounded rank-kc update), so
// engines that promise bitwise-stable factors across hosts pin kc and only
// inherit mc/nc/shape, which are rounding-neutral.
#pragma once

#include <algorithm>
#include <cstddef>

#include "blas/microkernel/cpu_features.h"

namespace xphi::blas {

struct BlockSizes {
  std::size_t mc = 0;
  std::size_t kc = 0;
  std::size_t nc = 0;
};

inline BlockSizes analytic_block_sizes(const mk::CpuFeatures& f,
                                       std::size_t mr, std::size_t nr,
                                       std::size_t elem) {
  BlockSizes b;
  if (mr == 0) mr = 1;
  if (nr == 0) nr = 1;
  if (elem == 0) elem = sizeof(double);

  // --- kc from L1 way-splitting -------------------------------------------
  const std::size_t line = std::max<std::size_t>(f.line_bytes, 1);
  const std::size_t ways = std::max<std::size_t>(f.l1d_assoc, 2);
  const std::size_t sets = std::max<std::size_t>(f.l1d_bytes / (ways * line), 1);
  const std::size_t usable = ways - 1;  // one way for the C tile + streams
  std::size_t wa = (usable * mr + (mr + nr) / 2) / (mr + nr);
  wa = std::clamp<std::size_t>(wa, 1, usable - 1 > 0 ? usable - 1 : 1);
  const std::size_t wb = usable > wa ? usable - wa : 1;
  const std::size_t kc_a = wa * sets * line / (mr * elem);
  const std::size_t kc_b = wb * sets * line / (nr * elem);
  std::size_t kc = std::min(kc_a, kc_b);
  kc = kc / 4 * 4;  // keep the pack strides friendly
  b.kc = std::clamp<std::size_t>(kc, 32, 2048);

  // --- mc from L2 occupancy ----------------------------------------------
  const std::size_t w2 = std::max<std::size_t>(f.l2_assoc, 2);
  const std::size_t l2_budget = f.l2_bytes / w2 * (w2 - 1);
  std::size_t mc = l2_budget / (b.kc * elem);
  mc = mc / mr * mr;
  b.mc = std::max(mc, mr);

  // --- nc from TLB reach --------------------------------------------------
  std::size_t nc = f.tlb_reach_bytes() / 2 / (b.kc * elem);
  nc = nc / nr * nr;
  b.nc = std::clamp<std::size_t>(std::max(nc, nr), nr, 8192);
  return b;
}

}  // namespace xphi::blas
