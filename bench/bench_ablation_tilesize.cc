// Ablation: offload tile-size selection (paper Section V-B).
//
//  1. Kt sweep: below the Kt > 4 * P / BW bound the result-tile transfer can
//     no longer hide under the compute and throughput collapses toward the
//     PCIe roofline; above it, wider panels only help the kernel slightly.
//  2. (Mt, Nt) sweep vs the runtime-adaptive pick at several matrix sizes:
//     big tiles amortize per-tile overheads but expose bigger first/last
//     transfers; the runtime-adaptive pick (tune_tile_size) tracks the
//     knee.
#include <cstdio>

#include "core/offload_dgemm.h"
#include "util/table.h"

int main() {
  using namespace xphi;
  const sim::KncGemmModel knc;
  const sim::SnbModel snb;
  const pci::PcieLink link;

  std::printf("Ablation A: Kt sweep (M=N=41000, tuned tiles)\n");
  std::printf("paper bound: Kt > 4 * P/BW = %.0f\n\n", link.min_kt(944.0));
  util::Table t({"Kt", "GFLOPS", "eff %", "per-tile cycle bound"});
  for (std::size_t kt : {300u, 600u, 900u, 1200u, 1800u, 2400u}) {
    core::OffloadDgemmConfig cfg;
    cfg.m = cfg.n = 41000;
    cfg.kt = kt;
    const auto r = core::simulate_offload_dgemm(cfg, knc, snb, link);
    const double compute = knc.gemm_seconds(r.mt, r.nt, kt, 300, false,
                                            sim::Precision::kDouble, 60);
    const double transfers =
        link.transfer_seconds(8.0 * (r.mt * kt + static_cast<double>(kt) * r.nt / 8.0)) +
        link.transfer_seconds(8.0 * r.mt * r.nt);
    t.add_row({util::Table::fmt(kt), util::Table::fmt(r.gflops, 0),
               util::Table::fmt(r.efficiency * 100, 1),
               transfers > compute ? "transfer-bound" : "compute-bound"});
  }
  t.print("ablation_kt.csv");

  std::printf("\nAblation B: fixed (Mt, Nt) vs runtime-adaptive (1 card)\n\n");
  util::Table t2({"M=N", "tiles", "GFLOPS fixed 2400", "GFLOPS fixed 7200",
                  "GFLOPS adaptive", "adaptive picks"});
  for (std::size_t n : {10000u, 20000u, 41000u, 82000u}) {
    auto run_fixed = [&](std::size_t tile) {
      core::OffloadDgemmConfig cfg;
      cfg.m = cfg.n = n;
      cfg.mt = cfg.nt = tile;
      return core::simulate_offload_dgemm(cfg, knc, snb, link);
    };
    core::OffloadDgemmConfig cfg;
    cfg.m = cfg.n = n;
    const auto adaptive = core::simulate_offload_dgemm(cfg, knc, snb, link);
    const auto f24 = run_fixed(2400);
    const auto f72 = run_fixed(7200);
    t2.add_row({util::Table::fmt(n), util::Table::fmt(adaptive.tiles_total),
                util::Table::fmt(f24.gflops, 0), util::Table::fmt(f72.gflops, 0),
                util::Table::fmt(adaptive.gflops, 0),
                std::to_string(adaptive.mt) + " x " +
                    std::to_string(adaptive.nt)});
  }
  t2.print("ablation_tilesize.csv");
  std::printf(
      "\nReading: the adaptive pick is never worse than either fixed choice; "
      "small matrices want small tiles, large matrices want large ones.\n");
  return 0;
}
