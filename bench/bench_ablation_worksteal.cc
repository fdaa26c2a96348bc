// Ablation: dynamic two-ended work stealing vs a static host/card split in
// offload DGEMM (paper Section V-B), across host core budgets. The static
// split divides tiles by the peak-flops ratio; stealing adapts to what the
// host actually delivers, so it wins whenever reality deviates from peak.
#include <cstdio>

#include "core/offload_dgemm.h"
#include "util/table.h"

int main() {
  using namespace xphi;
  const sim::KncGemmModel knc;
  const sim::SnbModel snb;
  const pci::PcieLink link;

  std::printf(
      "Ablation: offload DGEMM with host participation (M=N=41000, Kt=1200)\n\n");
  util::Table t({"host cores", "policy", "seconds", "GFLOPS", "host tiles"});
  for (int host_cores : {4, 8, 13, 16}) {
    for (bool dynamic : {true, false}) {
      core::OffloadDgemmConfig cfg;
      cfg.m = cfg.n = 41000;
      cfg.cards = 1;
      cfg.host_steals = true;
      cfg.host_compute_cores = host_cores;
      cfg.dynamic_stealing = dynamic;
      const auto r = core::simulate_offload_dgemm(cfg, knc, snb, link);
      t.add_row({util::Table::fmt(host_cores),
                 dynamic ? "dynamic stealing (paper)" : "static peak-ratio split",
                 util::Table::fmt(r.seconds, 3), util::Table::fmt(r.gflops, 0),
                 util::Table::fmt(r.tiles_host)});
    }
  }
  t.print("ablation_worksteal.csv");

  std::printf("\nAblation: partial-tile merging (M=N=25000, explicit 7200 tiles)\n\n");
  util::Table t2({"merge partials", "tiles", "seconds", "GFLOPS"});
  for (bool merge : {true, false}) {
    core::OffloadDgemmConfig cfg;
    cfg.m = cfg.n = 25000;  // 25000 = 3*7200 + 3400: ragged
    cfg.mt = cfg.nt = 7200;
    cfg.merge_partial_tiles = merge;
    const auto r = core::simulate_offload_dgemm(cfg, knc, snb, link);
    t2.add_row({merge ? "yes (paper)" : "no", util::Table::fmt(r.tiles_total),
                util::Table::fmt(r.seconds, 3), util::Table::fmt(r.gflops, 0)});
  }
  t2.print("ablation_merge.csv");
  std::printf(
      "\nReading: stealing matches or beats the static split at every host "
      "budget without retuning; merging removes the undersized tiles whose "
      "transfers cannot be hidden.\n");
  return 0;
}
