// Functional distributed HPL: a real block-cyclic LU factorization with
// partial pivoting over in-process message-passing ranks (net::World).
//
// This is the functional twin of the multi-node performance simulation in
// core/hybrid_hpl.h: it actually executes the communication pattern the
// simulation costs — panel gather/factor/broadcast, cross-row pivot
// exchanges, U forward-solve and broadcast down the columns, local trailing
// updates — and is validated against the sequential blocked factorization
// and the HPL residual test.
//
// Every stage runs one step — swap the rows, solve and broadcast U, update
// the trailing matrix, produce the next panel's packet — and the paper's
// three look-ahead schemes (Section IV, Figure 8) only reorder it, built on
// net::World's nonblocking layer:
//   kNone      — no overlap: the step runs in strict order and the next
//                panel is gathered, factored and broadcast (blocking) after
//                the whole trailing update (Figure 8a).
//   kBasic     — the next panel is gathered, factored and its broadcast
//                initiated (isend) right after the next-panel columns are
//                updated, so the factorization overlaps the bulk of the
//                trailing update; the packet is collected via irecv at the
//                next stage (Figure 8b).
//   kPipelined — DTRSM and U broadcast are additionally streamed over
//                column subsets: subset 0 (the next panel's columns) is
//                solved and sent first so its update and the look-ahead
//                panel start early, while the remaining subsets are solved
//                and broadcast as one coalesced message per process row
//                that travels under subset 0's compute and is consumed
//                subset by subset (Figure 8c).
// In every scheme the row swap is one pairwise exchange per owner-row pair
// covering all trailing columns, and the root factors the panel with
// blas::factor_stage_panel — the same stage primitive as the sequential
// oracle. All three produce bitwise-identical pivots and factors: the
// subset split changes no per-element accumulation order anywhere (see
// gemm_tiled.h).
//
// Scope note (documented in DESIGN.md): the panel is gathered to a root rank
// and factored there rather than factored in place across the process
// column. This preserves the exact numerics and the full swap/broadcast
// communication structure at the small sizes the functional tests run; the
// performance cost of the in-place distributed panel is what the simulation
// models.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "blas/lu_kernels.h"
#include "core/lookahead.h"
#include "core/offload_functional.h"
#include "hpl/block_cyclic.h"
#include "hpl/precision.h"
#include "net/world.h"
#include "util/matrix.h"

namespace xphi::trace {
class Timeline;
}

namespace xphi::hpl {

/// Look-ahead scheme of the factorization schedule: the same enum the
/// simulator's cost model (core/hybrid_hpl.h) uses for the three schemes.
using Lookahead = core::Lookahead;

struct DistributedHplOptions {
  /// When true, each rank's local trailing update runs through the
  /// functional offload engine (card threads + request/response queues +
  /// two-ended work stealing) instead of a plain local GEMM — the
  /// functional twin of the full multi-node *hybrid* HPL.
  bool use_offload_engine = false;
  core::FunctionalOffloadConfig offload{};

  Lookahead lookahead = Lookahead::kNone;
  /// Column subsets of the pipelined scheme's trailing update (clamped to
  /// [1, 16]; subset 0 is always the next panel's columns). The U solve and
  /// broadcast travel in two pieces whatever the value: the next-panel
  /// block, then one batch for the rest. The value only splits the
  /// post-batch trailing update into more GEMM calls, which changes no bit.
  int pipeline_subsets = 4;

  /// Critical-path kernel knobs of the root-rank panel factorization, the
  /// fused local row-swap passes and the local trailing GEMM (its
  /// micro-kernel; the offload engine reads offload.microkernel). The
  /// pool field is ignored: ranks run their kernels serially.
  blas::PanelOptions panel{};

  /// Optional capture of per-rank compute and communication spans
  /// (lane = rank; kBroadcast covers panel/U transfers and their waits,
  /// kRowSwap the pivot exchanges). Filled after the run completes.
  trace::Timeline* timeline = nullptr;

  /// Receive timeout handed to net::World (seconds; 0 = wait forever).
  /// A mismatched (src, tag) then surfaces as a diagnostic instead of a
  /// hung test.
  double recv_timeout_seconds = 120;

  /// Size-adaptive collective dispatch handed to net::World (0 = World
  /// defaults). Panel/U broadcasts above the crossover travel over the
  /// segmented ring, smaller ones over the binomial tree; both move the
  /// same bytes, so the choice is bitwise-invisible.
  std::size_t net_crossover_doubles = 0;
  std::size_t net_ring_segment = 0;

  /// Deterministic fault injection handed to net::World (per-message
  /// delay/drop, scripted slow/dead ranks; see World::set_fault_injector).
  /// To also fault the offload DMA path, set offload.injector. Null = clean.
  fault::Injector* injector = nullptr;

  /// Precision::kMixed demotes the local shares to fp32, runs every
  /// factorization stage through the float instantiation of the templated
  /// drivers (the panel/U/trailing payloads still travel as doubles —
  /// widening a float is exact, so the transport is bit-exact and the fp64
  /// path is untouched), then recovers the fp64 answer with distributed
  /// iterative refinement: r = b - Ax in fp64 (allreduced partial sums),
  /// correction solved through the fp32 factors, on a fixed deterministic
  /// schedule until the standard scaled-residual gate passes — the SAME
  /// blas::kHplResidualThreshold gate as fp64, no relaxation.
  Precision precision = Precision::kFp64;
  /// Correction-solve cap of the refinement schedule (kMixed only).
  int refine_max_iters = 30;
};

struct DistributedHplResult {
  bool ok = false;
  /// Scaled HPL residual of the solve on the gathered factors, bit-identical
  /// to blas::hpl_residual<double> of the original matrix. Under kFp64 rank
  /// 0 broadcasts that solution and the check runs row-partitioned: every
  /// rank regenerates a contiguous range of rows of A and the two maxima
  /// (||Ax - b||, ||A||) are max-reduced to rank 0 — a maximum is exact, so
  /// the bits do not depend on the split. Under kMixed rank 0 evaluates it
  /// sequentially on the distributed x.
  double residual = 0;
  /// Residual computed *distributed*: every rank regenerates its local
  /// entries of A, contributes partial row sums of A*x and |A|, and the
  /// norms are combined with a ring allreduce — no gathered matrix needed.
  double distributed_residual = 0;
  /// Factored matrix gathered to rank 0 (L\U in place, rows swapped): one
  /// message per rank, unpacked in nb-wide column runs. Under
  /// Precision::kMixed these are the fp32 factors widened to double
  /// (exact), so they compare bitwise against a sequential
  /// getrf_blocked<float> of the demoted matrix.
  util::Matrix<double> factored;
  /// Absolute global row interchanges, stage-ordered.
  std::vector<std::size_t> ipiv;
  /// Solution of Ax = b computed by the *distributed* triangular solves
  /// (block forward/back substitution with row-reductions and broadcasts).
  std::vector<double> x;
  /// Max |x_distributed - x_gathered|: the distributed solve must agree with
  /// solving on the gathered factors (kFp64: the solution rank 0 computes
  /// and broadcasts; kMixed: the sequential refinement twin's).
  double solve_agreement = 0;
  /// Per-rank communication counters (bytes, messages, blocked-wait time,
  /// mailbox high-water mark), indexed by rank.
  std::vector<net::CommStats> comm_stats;
  /// kMixed only: correction solves applied, and the scaled fp64 residual
  /// evaluated before each correction plus the final value. Every rank
  /// computes the trace from the same allreduced data, so it is
  /// bitwise-identical across ranks and across clean/faulted runs.
  int refine_iterations = 0;
  std::vector<double> refine_trace;
};

/// Factors the seeded HPL matrix of order n on a P x Q grid with panel width
/// nb, solves Ax = b both distributed and on the gathered factors, and
/// returns the residual, factors and solution.
DistributedHplResult run_distributed_hpl(std::size_t n, std::size_t nb,
                                         Grid grid, std::uint64_t seed = 42,
                                         const DistributedHplOptions& options = {});

}  // namespace xphi::hpl
