#include "hpcc/ptrans.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "fault/injector.h"

namespace xphi::hpcc {

namespace {

using hpl::BlockCyclic;
using hpl::Grid;
using net::Comm;
using net::Payload;
using net::World;
using util::ConstMatrixView;
using util::Matrix;
using util::MatrixView;

constexpr int kTagProbe = 900;
constexpr int kTagXfer = 901;
constexpr int kTagGather = 902;

/// Probe vectors for the u^T A v checksum, deterministic from the seed.
Payload probe_vectors(std::size_t n, std::uint64_t seed) {
  Payload uv(2 * n);
  util::Rng g(seed ^ 0x9E3779B97F4A7C15ull);
  for (double& x : uv) x = g.next_in(0.5, 1.5);
  return uv;
}

}  // namespace

void transpose_blocked(ConstMatrixView<double> src, MatrixView<double> dst) {
  constexpr std::size_t kB = 32;  // 32x32 doubles = two 8 KiB tiles in L1
  const std::size_t rows = src.rows(), cols = src.cols();
  for (std::size_t i0 = 0; i0 < rows; i0 += kB) {
    const std::size_t i1 = std::min(rows, i0 + kB);
    for (std::size_t j0 = 0; j0 < cols; j0 += kB) {
      const std::size_t j1 = std::min(cols, j0 + kB);
      for (std::size_t i = i0; i < i1; ++i)
        for (std::size_t j = j0; j < j1; ++j) dst(j, i) = src(i, j);
    }
  }
}

Matrix<double> ptrans_reference(std::size_t n, std::uint64_t seed, double alpha,
                                double beta) {
  Matrix<double> ref(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ref(i, j) = ptrans_ref_entry(seed, i, j, alpha, beta);
  return ref;
}

PtransResult run_ptrans(std::size_t n, Grid grid, std::uint64_t seed,
                        const PtransOptions& options) {
  PtransResult result;
  const std::size_t nb = std::max<std::size_t>(1, options.nb);
  const BlockCyclic bc(n, nb, grid);
  const int ranks = grid.ranks();
  const std::size_t nblocks = bc.num_blocks();

  World world(ranks);
  world.set_recv_timeout(options.recv_timeout_seconds);
  if (options.injector != nullptr)
    world.set_fault_injector(options.injector);
  if (options.net_crossover_doubles != 0)
    world.set_collective_crossover_doubles(options.net_crossover_doubles);
  if (options.net_ring_segment != 0)
    world.set_ring_segment_doubles(options.net_ring_segment);

  // Written by one rank each (rank 0 for the scalars); read after run().
  std::vector<double> rank_residual(static_cast<std::size_t>(ranks), 0.0);
  std::vector<std::size_t> rank_xfer_bytes(static_cast<std::size_t>(ranks), 0);
  double checksum = 0, elapsed = 0;
  Matrix<double> gathered;

  const auto block_size = [&](std::size_t b) {
    return std::min(nb, n - b * nb);
  };

  world.run([&](Comm& comm) {
    const int me = comm.rank();
    const int my_prow = grid.prow_of(me), my_pcol = grid.pcol_of(me);
    std::vector<int> all(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) all[static_cast<std::size_t>(r)] = r;

    // Local tiles of A (scaled in place) and B (regenerated from the seed:
    // any rank can produce any entry it owns without global state).
    const std::size_t lr = bc.local_rows(my_prow);
    const std::size_t lc = bc.local_cols(my_pcol);
    Matrix<double> a(lr, lc), b(lr, lc);
    for (std::size_t r = 0; r < lr; ++r) {
      const std::size_t gi = bc.global_row(my_prow, r);
      for (std::size_t c = 0; c < lc; ++c) {
        const std::size_t gj = bc.global_col(my_pcol, c);
        a(r, c) = util::hpl_entry(seed_a(seed), gi, gj);
        b(r, c) = util::hpl_entry(seed_b(seed), gi, gj);
      }
    }

    // Checksum probe vectors travel through the size-adaptive dispatcher
    // with an exact hint, so forced-tree vs forced-ring runs exercise both
    // collective families on this path (bitwise-invisible by contract).
    Payload uv;
    if (me == 0) uv = probe_vectors(n, seed);
    uv = comm.bcast_auto(0, all, std::move(uv), kTagProbe, 2 * n);

    comm.barrier();
    const auto t0 = std::chrono::steady_clock::now();

    // Scale pass: A = beta*A (same first step as ptrans_ref_entry, so a
    // correct run matches the reference bit for bit — beta == 1.0 included:
    // 1.0*x is exact).
    for (std::size_t r = 0; r < lr; ++r)
      for (std::size_t c = 0; c < lc; ++c) a(r, c) = options.beta * a(r, c);

    // Pack one payload per destination rank: for each local B block
    // (bbi, bbj), its transpose lands in A block (bbj, bbi) owned by
    // (bbj mod P, bbi mod Q). Layout per block: [abi, abj, rows, cols,
    // row-major data], indices as doubles (exact up to 2^53).
    std::vector<Payload> outgoing(static_cast<std::size_t>(ranks));
    Matrix<double> scratch(nb, nb);
    for (std::size_t bbi = static_cast<std::size_t>(my_prow); bbi < nblocks;
         bbi += static_cast<std::size_t>(grid.p)) {
      const std::size_t rbi = block_size(bbi);
      for (std::size_t bbj = static_cast<std::size_t>(my_pcol); bbj < nblocks;
           bbj += static_cast<std::size_t>(grid.q)) {
        const std::size_t cbj = block_size(bbj);
        const std::size_t abi = bbj, abj = bbi;  // mirrored A block coords
        const int dst = grid.rank_of(static_cast<int>(abi % grid.p),
                                     static_cast<int>(abj % grid.q));
        ConstMatrixView<double> src =
            b.block(bc.local_row(bbi * nb), bc.local_col(bbj * nb), rbi, cbj);
        MatrixView<double> t = scratch.block(0, 0, cbj, rbi);
        transpose_blocked(src, t);
        Payload& out = outgoing[static_cast<std::size_t>(dst)];
        out.push_back(static_cast<double>(abi));
        out.push_back(static_cast<double>(abj));
        out.push_back(static_cast<double>(cbj));  // rows of the A block
        out.push_back(static_cast<double>(rbi));  // cols of the A block
        for (std::size_t r = 0; r < cbj; ++r)
          out.insert(out.end(), t.row(r), t.row(r) + rbi);
      }
    }

    // Apply a payload of transposed blocks into the local A tiles.
    const auto apply = [&](const Payload& in) {
      std::size_t pos = 0;
      while (pos < in.size()) {
        const std::size_t abi = static_cast<std::size_t>(in[pos]);
        const std::size_t abj = static_cast<std::size_t>(in[pos + 1]);
        const std::size_t rows = static_cast<std::size_t>(in[pos + 2]);
        const std::size_t cols = static_cast<std::size_t>(in[pos + 3]);
        pos += 4;
        MatrixView<double> tile =
            a.block(bc.local_row(abi * nb), bc.local_col(abj * nb), rows, cols);
        for (std::size_t r = 0; r < rows; ++r)
          for (std::size_t c = 0; c < cols; ++c)
            tile(r, c) += options.alpha * in[pos + r * cols + c];
        pos += rows * cols;
      }
    };

    // The all-to-all: one message to every peer (empty ones included, so
    // the exchange is deterministic without pre-counting), own blocks
    // applied directly, then one message from every peer. Arrival order is
    // irrelevant: each A element gets exactly one contribution.
    std::size_t xfer_bytes = 0;
    for (int dst = 0; dst < ranks; ++dst) {
      if (dst == me) continue;
      xfer_bytes += outgoing[static_cast<std::size_t>(dst)].size() * 8;
      comm.isend(dst, kTagXfer, std::move(outgoing[static_cast<std::size_t>(dst)]));
    }
    apply(outgoing[static_cast<std::size_t>(me)]);
    for (int src = 0; src < ranks; ++src) {
      if (src == me) continue;
      apply(comm.recv(src, kTagXfer));
    }
    rank_xfer_bytes[static_cast<std::size_t>(me)] = xfer_bytes;

    comm.barrier();
    if (me == 0)
      elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              t0)
                    .count();

    // --- Verification -----------------------------------------------------
    // Bitwise gate: regenerate the local reference entries with the same
    // two-step arithmetic and take the max deviation (exactly 0 when the
    // exchange delivered every block intact).
    double local_resid = 0;
    double local_sum = 0;
    const double* u = uv.data();
    const double* v = uv.data() + n;
    for (std::size_t r = 0; r < lr; ++r) {
      const std::size_t gi = bc.global_row(my_prow, r);
      double row_sum = 0;
      for (std::size_t c = 0; c < lc; ++c) {
        const std::size_t gj = bc.global_col(my_pcol, c);
        const double ref =
            ptrans_ref_entry(seed, gi, gj, options.alpha, options.beta);
        const double d = std::abs(a(r, c) - ref);
        if (d > local_resid) local_resid = d;
        row_sum += a(r, c) * v[gj];
      }
      local_sum += u[gi] * row_sum;
    }
    rank_residual[static_cast<std::size_t>(me)] = local_resid;
    // Order-pinned ring allreduce: the checksum bits are independent of the
    // collective dispatch mode.
    Payload sum = comm.allreduce(all, {local_sum}, kTagProbe + 1);
    if (me == 0) checksum = sum[0];

    // Gather the assembled matrix to rank 0 (tests bit-compare it).
    if (!options.skip_gather) {
      Payload flat(lr * lc);
      for (std::size_t r = 0; r < lr; ++r)
        std::memcpy(flat.data() + r * lc, &a(r, 0), lc * sizeof(double));
      if (me != 0) {
        comm.send(0, kTagGather, std::move(flat));
      } else {
        gathered = Matrix<double>(n, n);
        const auto scatter_local = [&](int rank, const Payload& data) {
          const int prow = grid.prow_of(rank), pcol = grid.pcol_of(rank);
          const std::size_t rlr = bc.local_rows(prow);
          const std::size_t rlc = bc.local_cols(pcol);
          for (std::size_t r = 0; r < rlr; ++r) {
            const std::size_t gi = bc.global_row(prow, r);
            for (std::size_t c = 0; c < rlc; ++c)
              gathered(gi, bc.global_col(pcol, c)) = data[r * rlc + c];
          }
        };
        scatter_local(0, flat);
        for (int src = 1; src < ranks; ++src)
          scatter_local(src, comm.recv(src, kTagGather));
      }
    }
  });

  result.seconds = elapsed;
  result.checksum = checksum;
  result.a = std::move(gathered);
  for (double r : rank_residual) result.residual = std::max(result.residual, r);

  // Serial reference checksum (different summation order than the ring:
  // this gate is relative, the bitwise one above is exact).
  const Payload uv = probe_vectors(n, seed);
  double ref_sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0;
    for (std::size_t j = 0; j < n; ++j)
      row_sum +=
          ptrans_ref_entry(seed, i, j, options.alpha, options.beta) * uv[n + j];
    ref_sum += uv[i] * row_sum;
  }
  result.ref_checksum = ref_sum;

  std::size_t total_xfer = 0;
  for (std::size_t b : rank_xfer_bytes) total_xfer += b;
  if (elapsed > 0)
    result.gbytes_per_s = static_cast<double>(total_xfer) / elapsed / 1e9;

  result.comm_stats.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) result.comm_stats.push_back(world.stats(r));

  const double scale = std::max(1.0, std::abs(ref_sum));
  result.ok = result.residual == 0.0 &&
              std::abs(result.checksum - ref_sum) / scale < 1e-10;
  return result;
}

}  // namespace xphi::hpcc
