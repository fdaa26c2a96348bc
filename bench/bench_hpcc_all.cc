// HPCC-style composite suite: STREAM, PTRANS, GUPS/RandomAccess, b_eff and
// one distributed-HPL point, in one run with one JSON artifact
// (BENCH_hpcc.json) — the functional twin of the HPC Challenge report the
// paper's Linpack numbers would sit inside.
//
// Every workload enforces its own verification gate and the binary exits
// nonzero if any gate fails:
//   - STREAM: closed-form replay of the kernel cycle (rel. error < 1e-13);
//   - PTRANS: bitwise residual 0 vs the regenerated reference + u^T A v
//     checksum vs the serial reference;
//   - GUPS: serial replay of every origin's update stream (error rate must
//     be 0 — the gate's formal bound is the benchmark's 1%);
//   - b_eff: every message bit-compared against the regenerated expected
//     payload;
//   - HPL: scaled residual under the HPL threshold, distributed solve
//     agreeing with the gathered-factor solve.
//
// The b_eff collective probe additionally emits measured values for the
// World's size-adaptive dispatch knobs (net_crossover_doubles /
// net_ring_segment).
//
// Flags:
//   --out PATH   JSON artifact                      [BENCH_hpcc.json]
//   --ranks N    fabric ranks for GUPS/b_eff        [8 full, 4 smoke]
//   --smoke      tiny shapes (the ctest gate); all gates still armed
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "hpcc/beff.h"
#include "hpcc/gups.h"
#include "hpcc/ptrans.h"
#include "hpcc/stream.h"
#include "hpl/distributed.h"
#include "json_out.h"
#include "sim/machine.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace xphi;

struct Options {
  std::string out = "BENCH_hpcc.json";
  int ranks = 0;  // 0 = pick by mode
  bool smoke = false;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--out") {
      o.out = next();
    } else if (a == "--ranks") {
      o.ranks = std::max(1, std::atoi(next()));
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_hpcc_all [--out PATH] [--ranks N] [--smoke]\n");
      std::exit(2);
    }
  }
  if (o.ranks == 0) o.ranks = o.smoke ? 4 : 8;
  return o;
}

int failures = 0;

void gate(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "GATE FAILED: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  std::vector<bench::JsonRecord> records;
  util::Table table({"workload", "config", "metric", "value", "ok"});
  const auto add_row = [&](const std::string& workload,
                           const std::string& config,
                           const std::string& metric, double value, bool ok) {
    table.add_row({workload, config, metric, util::Table::fmt(value, 3),
                   ok ? "yes" : "NO"});
  };

  // --- STREAM: serial + pooled measurements, modeled per-card rows --------
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  const std::size_t pool_width = opt.smoke ? 3 : std::min(hw - 1, 15u);
  hpcc::StreamOptions sopt;
  sopt.elements = opt.smoke ? (std::size_t{1} << 16) : (std::size_t{1} << 23);
  sopt.reps = opt.smoke ? 2 : 5;
  const hpcc::StreamResult s1 = hpcc::run_stream(sopt);
  gate(s1.ok, "STREAM serial closed-form check");
  add_row("stream", "serial", "triad_gbs", s1.triad_gbs, s1.ok);
  records.push_back(bench::JsonRecord{}
                        .str("workload", "stream")
                        .str("kind", "measured")
                        .str("config", "serial")
                        .num("threads", 1)
                        .num("copy_gbs", s1.copy_gbs)
                        .num("scale_gbs", s1.scale_gbs)
                        .num("add_gbs", s1.add_gbs)
                        .num("triad_gbs", s1.triad_gbs)
                        .num("residual", s1.residual)
                        .num("ok", s1.ok ? 1 : 0));

  util::ThreadPool pool(pool_width);
  hpcc::StreamOptions popt = sopt;
  popt.pool = &pool;
  const hpcc::StreamResult sp = hpcc::run_stream(popt);
  gate(sp.ok, "STREAM pooled closed-form check");
  const std::string pcfg = "pool-" + std::to_string(pool_width + 1);
  add_row("stream", pcfg, "triad_gbs", sp.triad_gbs, sp.ok);
  records.push_back(bench::JsonRecord{}
                        .str("workload", "stream")
                        .str("kind", "measured")
                        .str("config", pcfg)
                        .num("threads", static_cast<double>(pool_width + 1))
                        .num("copy_gbs", sp.copy_gbs)
                        .num("scale_gbs", sp.scale_gbs)
                        .num("add_gbs", sp.add_gbs)
                        .num("triad_gbs", sp.triad_gbs)
                        .num("residual", sp.residual)
                        .num("ok", sp.ok ? 1 : 0));

  // Per-card rows from the Table I machine model (what the real hardware
  // would sustain; the measured rows above are this container's memory).
  for (const sim::MachineSpec& spec :
       {sim::MachineSpec::sandy_bridge_ep(), sim::MachineSpec::knights_corner()}) {
    add_row("stream", spec.name, "stream_bw_gbs", spec.stream_bw_gbs, true);
    records.push_back(bench::JsonRecord{}
                          .str("workload", "stream")
                          .str("kind", "modeled")
                          .str("config", spec.name)
                          .num("stream_bw_gbs", spec.stream_bw_gbs));
  }

  // --- PTRANS --------------------------------------------------------------
  const std::size_t ptrans_n = opt.smoke ? 96 : 512;
  const hpl::Grid ptrans_grid = opt.smoke ? hpl::Grid{2, 2} : hpl::Grid{2, 4};
  hpcc::PtransOptions topt;
  topt.nb = opt.smoke ? 16 : 64;
  topt.skip_gather = !opt.smoke;  // gates don't need the gathered matrix
  const hpcc::PtransResult tr = hpcc::run_ptrans(ptrans_n, ptrans_grid, 42, topt);
  gate(tr.ok, "PTRANS bitwise residual + checksum");
  const std::string tcfg = std::to_string(ptrans_n) + "@" +
                           std::to_string(ptrans_grid.p) + "x" +
                           std::to_string(ptrans_grid.q);
  add_row("ptrans", tcfg, "gbytes_per_s", tr.gbytes_per_s, tr.ok);
  records.push_back(bench::JsonRecord{}
                        .str("workload", "ptrans")
                        .str("config", tcfg)
                        .num("n", static_cast<double>(ptrans_n))
                        .num("nb", static_cast<double>(topt.nb))
                        .num("seconds", tr.seconds)
                        .num("gbytes_per_s", tr.gbytes_per_s)
                        .num("residual", tr.residual)
                        .num("checksum", tr.checksum)
                        .num("ok", tr.ok ? 1 : 0));

  // --- GUPS / RandomAccess -------------------------------------------------
  hpcc::GupsOptions gopt;
  gopt.table_bits = opt.smoke ? 12 : 18;
  const hpcc::GupsResult gr = hpcc::run_gups(opt.ranks, 42, gopt);
  gate(gr.ok, "GUPS serial-replay error rate");
  gate(gr.error_rate == 0.0, "GUPS exact-zero error rate");
  const std::string gcfg = "2^" + std::to_string(gopt.table_bits) + "@" +
                           std::to_string(opt.ranks) + "r";
  add_row("gups", gcfg, "gups", gr.gups, gr.ok);
  records.push_back(bench::JsonRecord{}
                        .str("workload", "gups")
                        .str("config", gcfg)
                        .num("ranks", static_cast<double>(opt.ranks))
                        .num("table_size", static_cast<double>(gr.table_size))
                        .num("total_updates", static_cast<double>(gr.total_updates))
                        .num("seconds", gr.seconds)
                        .num("gups", gr.gups)
                        .num("error_rate", gr.error_rate)
                        .num("ok", gr.ok ? 1 : 0));

  // --- b_eff ---------------------------------------------------------------
  hpcc::BeffOptions bopt;
  bopt.ranks = opt.ranks;
  bopt.reps = opt.smoke ? 2 : 6;
  bopt.random_pairings = opt.smoke ? 2 : 4;
  if (opt.smoke) bopt.sizes_doubles = {1, 64, 1024, 8192};
  const hpcc::BeffResult br = hpcc::run_beff(bopt);
  gate(br.ok, "b_eff payload bit-compare");
  add_row("b_eff", std::to_string(opt.ranks) + "r", "beff_gbs", br.beff_gbs,
          br.ok);
  records.push_back(bench::JsonRecord{}
                        .str("workload", "beff")
                        .str("kind", "summary")
                        .num("ranks", static_cast<double>(opt.ranks))
                        .num("beff_gbs", br.beff_gbs)
                        .num("seconds", br.seconds)
                        .num("ok", br.ok ? 1 : 0));
  util::Table beff_table(
      {"doubles", "ring GB/s", "rand GB/s", "ring us", "rand us"});
  for (const hpcc::BeffCell& cell : br.cells) {
    beff_table.add_row({util::Table::fmt(cell.size_doubles),
                        util::Table::fmt(cell.ring_gbs, 3),
                        util::Table::fmt(cell.random_gbs, 3),
                        util::Table::fmt(cell.ring_us, 1),
                        util::Table::fmt(cell.random_us, 1)});
    records.push_back(bench::JsonRecord{}
                          .str("workload", "beff")
                          .str("kind", "cell")
                          .num("size_doubles", static_cast<double>(cell.size_doubles))
                          .num("ring_gbs", cell.ring_gbs)
                          .num("random_gbs", cell.random_gbs)
                          .num("ring_us", cell.ring_us)
                          .num("random_us", cell.random_us));
  }
  for (const hpcc::CollectiveProbe& p : br.probes)
    records.push_back(bench::JsonRecord{}
                          .str("workload", "beff")
                          .str("kind", "collective_probe")
                          .num("size_doubles", static_cast<double>(p.size_doubles))
                          .num("tree_seconds", p.tree_seconds)
                          .num("ring_seconds", p.ring_seconds)
                          .num("best_segment", static_cast<double>(p.best_segment)));
  const hpcc::NetKnobsSeed seed = hpcc::seed_net_knobs(br.probes);
  records.push_back(bench::JsonRecord{}
                        .str("workload", "beff")
                        .str("kind", "net_seed")
                        .num("net_crossover_doubles",
                             static_cast<double>(seed.crossover_doubles))
                        .num("net_ring_segment",
                             static_cast<double>(seed.ring_segment)));

  // --- HPL point -----------------------------------------------------------
  const std::size_t hpl_n = opt.smoke ? 72 : 240;
  const std::size_t hpl_nb = opt.smoke ? 12 : 24;
  const auto t0 = std::chrono::steady_clock::now();
  const hpl::DistributedHplResult hr =
      hpl::run_distributed_hpl(hpl_n, hpl_nb, hpl::Grid{2, 2}, 42);
  const double hpl_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  gate(hr.ok, "HPL scaled residual");
  const double hpl_gflops =
      (2.0 / 3.0 * static_cast<double>(hpl_n) * hpl_n * hpl_n +
       1.5 * static_cast<double>(hpl_n) * hpl_n) /
      std::max(hpl_seconds, 1e-9) / 1e9;
  const std::string hcfg = std::to_string(hpl_n) + "@2x2";
  add_row("hpl", hcfg, "gflops", hpl_gflops, hr.ok);
  records.push_back(bench::JsonRecord{}
                        .str("workload", "hpl")
                        .str("config", hcfg)
                        .num("n", static_cast<double>(hpl_n))
                        .num("nb", static_cast<double>(hpl_nb))
                        .num("seconds", hpl_seconds)
                        .num("gflops", hpl_gflops)
                        .num("residual", hr.residual)
                        .num("ok", hr.ok ? 1 : 0));

  // --- composite -----------------------------------------------------------
  records.push_back(bench::JsonRecord{}
                        .str("workload", "composite")
                        .str("mode", opt.smoke ? "smoke" : "full")
                        .num("stream_triad_gbs", sp.triad_gbs)
                        .num("ptrans_gbytes_per_s", tr.gbytes_per_s)
                        .num("gups", gr.gups)
                        .num("beff_gbs", br.beff_gbs)
                        .num("hpl_gflops", hpl_gflops)
                        .num("gates_failed", failures));

  std::printf("HPCC composite (%s)\n", opt.smoke ? "smoke" : "full");
  table.print();
  std::printf("\nb_eff table (%d ranks)\n", opt.ranks);
  beff_table.print();
  std::printf(
      "\nnet seed from collective probe: crossover=%zu doubles, segment=%zu\n",
      seed.crossover_doubles, seed.ring_segment);

  if (!bench::write_json(opt.out, "hpcc", records))
    std::fprintf(stderr, "warning: could not write %s\n", opt.out.c_str());
  else
    std::printf("wrote %s\n", opt.out.c_str());

  if (failures != 0) {
    std::fprintf(stderr, "%d gate(s) failed\n", failures);
    return 1;
  }
  return 0;
}
