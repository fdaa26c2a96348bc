// xhpl — the benchmark driver a Top500 submitter would run.
//
// Reads an HPL.dat-style configuration (or uses Table III defaults), runs
// the hybrid HPL model for every (N, NB, grid, cards) combination, and
// prints an HPL-shaped results table. Pass a config path as argv[1]:
//
//   Ns:     84000 168000
//   NBs:    1200
//   grids:  1x1 2x2
//   cards:  1 2
//   scheme: pipelined
//   memory: 64
//
// A small functional validation (distributed HPL on a 2x2 in-process grid)
// runs first, mirroring HPL's own residual check.
#include <cstdio>
#include <string>

#include "core/hybrid_hpl.h"
#include "hpl/config.h"
#include "hpl/distributed.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace xphi;

  hpl::RunConfig cfg;
  if (argc > 1) {
    const auto parsed = hpl::load_run_config(argv[1]);
    if (!parsed.ok) {
      std::fprintf(stderr, "xhpl: %s\n", parsed.error.c_str());
      return 2;
    }
    cfg = parsed.config;
  }

  // Residual gate, as xhpl performs after each solve.
  const auto check = hpl::run_distributed_hpl(96, 16, hpl::Grid{2, 2});
  std::printf("functional residual check (N=96, 2x2 ranks): %.4f -> %s\n\n",
              check.residual, check.ok ? "PASSED" : "FAILED");
  if (!check.ok) return 1;

  std::printf("%zu combination(s), scheme=%s, %zu GiB/node\n\n",
              cfg.combinations(), core::lookahead_name(cfg.scheme),
              cfg.memory_gib);
  util::Table t({"N", "NB", "P", "Q", "cards", "time s", "TFLOPS", "eff %",
                 "fits mem"});
  for (const std::size_t n : cfg.ns) {
    for (const std::size_t nb : cfg.nbs) {
      for (const auto& [p, q] : cfg.grids) {
        for (const int cards : cfg.cards) {
          core::HybridHplConfig run;
          run.n = n;
          run.nb = nb;
          run.p = p;
          run.q = q;
          run.cards = cards;
          run.scheme = cfg.scheme;
          run.host_mem_gib = cfg.memory_gib;
          const auto r = core::simulate_hybrid_hpl(run);
          t.add_row({util::Table::fmt(n), util::Table::fmt(nb),
                     util::Table::fmt(p), util::Table::fmt(q),
                     util::Table::fmt(cards), util::Table::fmt(r.seconds, 1),
                     util::Table::fmt(r.gflops / 1000.0, 2),
                     util::Table::fmt(r.efficiency * 100, 1),
                     r.fits_memory ? "yes" : "NO"});
        }
      }
    }
  }
  t.print("xhpl_results.csv");
  return 0;
}
