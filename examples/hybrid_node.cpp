// Scenario: sizing a single hybrid node.
//
// You have a dual-socket Sandy Bridge EP host and are deciding (a) whether a
// second Knights Corner card pays off and (b) how much of the win comes from
// the pipelined look-ahead. This example sweeps both axes with the hybrid
// HPL model, then drills into the offload DGEMM engine: the runtime-adaptive
// tile selection and the Kt lower bound from the PCIe budget.
#include <cstdio>

#include "core/hybrid_hpl.h"
#include "core/offload_dgemm.h"
#include "util/table.h"

int main() {
  using namespace xphi;

  std::printf("=== Hybrid node sizing: N = 84K, 64 GiB host ===\n\n");
  util::Table t({"cards", "scheme", "TFLOPS", "efficiency %", "card idle %"});
  for (int cards : {0, 1, 2}) {
    for (auto scheme : {core::Lookahead::kNone, core::Lookahead::kBasic,
                        core::Lookahead::kPipelined}) {
      if (cards == 0 && scheme != core::Lookahead::kBasic) continue;
      core::HybridHplConfig cfg;
      cfg.n = 84000;
      cfg.cards = cards;
      cfg.scheme = scheme;
      const auto r = core::simulate_hybrid_hpl(cfg);
      t.add_row({util::Table::fmt(cards), core::lookahead_name(scheme),
                 util::Table::fmt(r.gflops / 1000.0, 2),
                 util::Table::fmt(r.efficiency * 100, 1),
                 util::Table::fmt(r.exposed_fraction * 100, 1)});
    }
  }
  t.print();

  std::printf("\n=== Offload DGEMM engine ===\n\n");
  const sim::KncGemmModel knc;
  const sim::SnbModel snb;
  const pci::PcieLink link;
  std::printf("PCIe budget rule: Kt > 4 * P / BW = %.0f  (paper uses Kt = 1200)\n",
              link.min_kt(944.0));
  util::Table tiles({"update width", "tuned Mt x Nt", "GFLOPS", "eff %"});
  for (std::size_t w : {10000u, 20000u, 40000u, 82000u}) {
    core::OffloadDgemmConfig cfg;
    cfg.m = cfg.n = w;
    const auto r = core::simulate_offload_dgemm(cfg, knc, snb, link);
    tiles.add_row({util::Table::fmt(w),
                   std::to_string(r.mt) + " x " + std::to_string(r.nt),
                   util::Table::fmt(r.gflops, 0),
                   util::Table::fmt(r.efficiency * 100, 1)});
  }
  tiles.print();
  std::printf(
      "\nReading: the second card adds ~70%% more throughput but costs ~4 "
      "efficiency points; pipelined look-ahead is worth ~6-9 points on "
      "either configuration.\n");
  return 0;
}
