// Weak-scaling study for the event-driven net::World (ROADMAP item 3:
// "scale the simulated cluster 100x beyond the paper").
//
// Two coupled sweeps, one JSON artifact (BENCH_scaling.json):
//
//  - fabric rows: real World runs on square grids up to 32x32 = 1024 ranks,
//    replaying the per-stage HPL communication skeleton (panel broadcast
//    across each process row, U broadcast down each process column, final
//    barrier) through the size-adaptive collectives, with constant per-rank
//    payloads — weak scaling, so perfect fabric behavior would be flat wall
//    time. Rows report wall seconds, per-rank message/byte counts, the
//    tree/ring dispatch split and the per-rank efficiency t(smallest)/t(P).
//    The whole 1024-rank fleet runs on the cooperative scheduler's bounded
//    worker pool — OS threads never scale with P.
//
//  - model rows: core::simulate_hybrid_hpl weak scaling with N =
//    84000 * sqrt(nodes) (the paper's own progression: 84000 at 1x1,
//    168000 at 2x2, ~840000 at 10x10 — constant memory per node by
//    construction) for the basic and pipelined look-ahead schemes, from
//    1x1 through 32x32 = 1024 nodes. The per-rank efficiency model is
//    validated against the paper's Table III shape at 10x10 (N=825000,
//    1 card: basic 67.7%, pipelined 76.1%; the binary exits nonzero if the
//    model drifts outside +/-3 points or the pipelined scheme stops
//    beating basic there).
//
// Flags:
//   --stages N   communication stages per fabric run    [default 4]
//   --out PATH   JSON artifact                          [BENCH_scaling.json]
//   --smoke      fabric grids capped at 8x8, 2 stages (the ctest gate;
//                model validation still runs)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/hybrid_hpl.h"
#include "json_out.h"
#include "net/world.h"
#include "util/table.h"

namespace {

using namespace xphi;
using net::Comm;
using net::CommStats;
using net::Payload;
using net::World;

struct Options {
  int stages = 4;
  std::string out = "BENCH_scaling.json";
  bool smoke = false;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--stages") {
      o.stages = std::max(1, std::atoi(next()));
    } else if (a == "--out") {
      o.out = next();
    } else if (a == "--smoke") {
      o.smoke = true;
      o.stages = 2;
    } else {
      std::fprintf(stderr,
                   "usage: bench_scaling [--stages N] [--out PATH] [--smoke]\n");
      std::exit(2);
    }
  }
  return o;
}

struct FabricRow {
  int p = 0, q = 0;
  double seconds = 0;
  std::size_t messages = 0;
  std::size_t bytes = 0;
  std::size_t tree = 0;
  std::size_t ring = 0;
  int workers = 0;
};

/// One weak-scaling fabric run: `stages` HPL-shaped communication rounds on
/// a p x q grid (rank = row * q + col) with per-rank payloads independent
/// of the grid size.
FabricRow run_fabric(int p, int q, int stages) {
  constexpr std::size_t kPanelDoubles = 4096;  // above the default crossover
  constexpr std::size_t kUDoubles = 2048;
  constexpr std::size_t kBlockDoubles = 64;    // below it: tree side
  FabricRow row;
  row.p = p;
  row.q = q;
  const int ranks = p * q;
  World w(ranks);
  row.workers = w.workers();
  const auto t0 = std::chrono::steady_clock::now();
  w.run([&](Comm& comm) {
    const int me = comm.rank();
    const int my_row = me / q, my_col = me % q;
    std::vector<int> row_group(static_cast<std::size_t>(q));
    for (int c = 0; c < q; ++c)
      row_group[static_cast<std::size_t>(c)] = my_row * q + c;
    std::vector<int> col_group(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r)
      col_group[static_cast<std::size_t>(r)] = r * q + my_col;
    for (int s = 0; s < stages; ++s) {
      const int tag = s * 8;
      // Panel packet across the process row (large: segmented ring).
      const int root_col = s % q;
      Payload packet;
      if (my_col == root_col) packet.assign(kPanelDoubles, 1.0 + s);
      packet = comm.bcast_auto(my_row * q + root_col, row_group,
                               std::move(packet), tag, kPanelDoubles);
      // U down the process column (large: segmented ring).
      const int root_row = s % p;
      Payload u;
      if (my_row == root_row) u.assign(kUDoubles, 2.0 + s);
      u = comm.bcast_auto(root_row * q + my_col, col_group, std::move(u),
                          tag + 1, kUDoubles);
      // Solved block across the row (small: binomial tree).
      Payload block;
      if (my_col == root_col) block.assign(kBlockDoubles, 3.0 + s);
      block = comm.bcast_auto(my_row * q + root_col, row_group,
                              std::move(block), tag + 2, kBlockDoubles);
    }
    comm.barrier();
  });
  row.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (int r = 0; r < ranks; ++r) {
    const CommStats s = w.stats(r);
    row.messages += s.messages_sent;
    row.bytes += s.bytes_sent;
    row.tree += s.tree_collectives;
    row.ring += s.ring_collectives;
  }
  return row;
}

struct ModelRow {
  int grid = 0;  // grid x grid nodes
  core::Lookahead scheme = core::Lookahead::kBasic;
  std::size_t n = 0;
  core::HybridHplResult result;
};

ModelRow run_model(int grid, core::Lookahead scheme, std::size_t n) {
  ModelRow row;
  row.grid = grid;
  row.scheme = scheme;
  row.n = n;
  core::HybridHplConfig cfg;
  cfg.n = n;
  cfg.p = cfg.q = grid;
  cfg.cards = 1;
  cfg.scheme = scheme;
  cfg.host_mem_gib = 64;
  row.result = core::simulate_hybrid_hpl(cfg);
  return row;
}

/// Weak-scaling N for a grid x grid cluster: constant memory per node.
std::size_t weak_n(int grid) {
  return static_cast<std::size_t>(84000) * static_cast<std::size_t>(grid);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  std::vector<bench::JsonRecord> records;

  // --- fabric weak scaling --------------------------------------------------
  std::vector<int> grids{2, 4, 8};
  if (!opt.smoke) {
    grids.push_back(16);
    grids.push_back(32);
  }
  std::printf("Fabric weak scaling (%d stages/run, %d worker thread(s)):\n\n",
              opt.stages, World(4).workers());
  util::Table fabric_table({"grid", "ranks", "seconds", "msgs/rank",
                            "KiB/rank", "tree", "ring", "eff %"});
  double base_seconds = 0;
  for (const int g : grids) {
    const FabricRow row = run_fabric(g, g, opt.stages);
    const int ranks = g * g;
    if (base_seconds == 0) base_seconds = row.seconds;
    const double eff = base_seconds > 0 ? base_seconds / row.seconds : 1.0;
    fabric_table.add_row(
        {util::Table::fmt(g) + "x" + util::Table::fmt(g),
         util::Table::fmt(ranks), util::Table::fmt(row.seconds, 4),
         util::Table::fmt(static_cast<double>(row.messages) / ranks, 1),
         util::Table::fmt(static_cast<double>(row.bytes) / ranks / 1024.0, 1),
         util::Table::fmt(static_cast<std::size_t>(row.tree)),
         util::Table::fmt(static_cast<std::size_t>(row.ring)),
         util::Table::fmt(eff * 100, 1)});
    bench::JsonRecord rec;
    rec.str("kind", "fabric")
        .str("grid", std::to_string(g) + "x" + std::to_string(g))
        .num("ranks", ranks)
        .num("stages", opt.stages)
        .num("workers", row.workers)
        .num("seconds", row.seconds)
        .num("messages_per_rank", static_cast<double>(row.messages) / ranks)
        .num("bytes_per_rank", static_cast<double>(row.bytes) / ranks)
        .num("tree_collectives", static_cast<double>(row.tree))
        .num("ring_collectives", static_cast<double>(row.ring))
        .num("per_rank_efficiency", eff);
    records.push_back(rec);
  }
  fabric_table.print();

  // --- per-rank efficiency model (weak scaling) -----------------------------
  std::printf("\nModel weak scaling, N = 84000*sqrt(nodes), 1 card/node:\n\n");
  util::Table model_table(
      {"grid", "nodes", "N", "scheme", "TFLOPS", "eff %", "exposed %"});
  std::vector<int> model_grids{1, 2, 4, 8, 10, 16, 32};
  for (const int g : model_grids) {
    for (const auto scheme :
         {core::Lookahead::kBasic, core::Lookahead::kPipelined}) {
      const ModelRow row = run_model(g, scheme, weak_n(g));
      model_table.add_row(
          {util::Table::fmt(g) + "x" + util::Table::fmt(g),
           util::Table::fmt(g * g), util::Table::fmt(row.n),
           core::lookahead_name(scheme),
           util::Table::fmt(row.result.gflops / 1000.0, 2),
           util::Table::fmt(row.result.efficiency * 100, 1),
           util::Table::fmt(row.result.exposed_fraction * 100, 1)});
      bench::JsonRecord rec;
      rec.str("kind", "model")
          .str("grid", std::to_string(g) + "x" + std::to_string(g))
          .num("nodes", g * g)
          .num("n", static_cast<double>(row.n))
          .str("scheme", core::lookahead_name(scheme))
          .num("gflops", row.result.gflops)
          .num("efficiency", row.result.efficiency)
          .num("exposed_fraction", row.result.exposed_fraction)
          .num("fits_memory", row.result.fits_memory ? 1 : 0);
      records.push_back(rec);
      if (!row.result.fits_memory)
        std::printf("WARNING: N=%zu does not fit memory at %dx%d\n", row.n, g,
                    g);
    }
  }
  model_table.print();

  // --- Table III validation at 10x10 ----------------------------------------
  // The paper's measured cluster point (N=825000, 1 card, 64 GiB): basic
  // 67.7% efficiency, pipelined 76.1%. The weak-scaling model must still
  // reproduce that shape — pipelined beats basic, both within 3 points.
  const ModelRow v_basic = run_model(10, core::Lookahead::kBasic, 825000);
  const ModelRow v_pipe = run_model(10, core::Lookahead::kPipelined, 825000);
  const double basic_eff = v_basic.result.efficiency;
  const double pipe_eff = v_pipe.result.efficiency;
  std::printf(
      "\nTable III validation at 10x10, N=825000: basic %.1f%% (paper 67.7), "
      "pipelined %.1f%% (paper 76.1)\n",
      basic_eff * 100, pipe_eff * 100);
  bench::JsonRecord validation;
  validation.str("kind", "validation")
      .str("grid", "10x10")
      .num("n", 825000)
      .num("basic_efficiency", basic_eff)
      .num("paper_basic_efficiency", 0.677)
      .num("pipelined_efficiency", pipe_eff)
      .num("paper_pipelined_efficiency", 0.761);
  records.push_back(validation);

  bool ok = true;
  if (std::abs(basic_eff - 0.677) > 0.03) {
    std::fprintf(stderr,
                 "FAIL: basic 10x10 efficiency %.3f drifted from paper 0.677\n",
                 basic_eff);
    ok = false;
  }
  if (std::abs(pipe_eff - 0.761) > 0.03) {
    std::fprintf(
        stderr,
        "FAIL: pipelined 10x10 efficiency %.3f drifted from paper 0.761\n",
        pipe_eff);
    ok = false;
  }
  if (pipe_eff <= basic_eff) {
    std::fprintf(stderr,
                 "FAIL: pipelined (%.3f) must beat basic (%.3f) at 10x10\n",
                 pipe_eff, basic_eff);
    ok = false;
  }

  if (!bench::write_json(opt.out, "scaling", records))
    std::fprintf(stderr, "warning: could not write %s\n", opt.out.c_str());
  else
    std::printf("\nJSON: %s\n", opt.out.c_str());
  return ok ? 0 : 1;
}
