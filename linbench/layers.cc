// The traced per-layer suite. Every measurement here is a benchmark call
// into one module's public functions, wrapped in a Span; nothing inside
// src/ is instrumented. README.md lists which end-to-end metric each of
// these numbers should move, and the base of every ratio.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "blas/getrf.h"
#include "blas/microkernel/registry.h"
#include "blas/residual.h"
#include "hpcc/stream.h"
#include "hpl/distributed.h"
#include "hpl/mixed.h"
#include "linbench.h"
#include "lu/functional.h"
#include "net/world.h"
#include "serve/server.h"
#include "util/flops.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace linbench {
namespace {

using Clock = std::chrono::steady_clock;
using xphi::util::Matrix;
using xphi::util::ThreadPool;
namespace blas = xphi::blas;
namespace mk = xphi::blas::mk;

template <class F>
double timed(const char* layer, const char* name, std::uint64_t op, F&& f) {
  Span s(layer, name, op);
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

template <class T>
void copy_matrix(const Matrix<T>& from, Matrix<T>& to) {
  std::memcpy(to.data(), from.data(), from.rows() * from.ld() * sizeof(T));
}

/// Last-level cache size as sysconf reports it (0 when unknown); stated
/// next to the STREAM array size.
long llc_bytes() {
#if defined(_SC_LEVEL3_CACHE_SIZE)
  return std::max(0L, sysconf(_SC_LEVEL3_CACHE_SIZE));
#else
  return 0;
#endif
}

// ---- blas: getrf_blocked's stage loop, one span per kernel call --------

struct Stages {
  double panel = 0, laswp = 0, trsm = 0, gemm = 0, total = 0;
  double panel_flops = 0, trsm_flops = 0, gemm_flops = 0;
  double laswp_bytes = 0;  // computed: 2 rows read + 2 written per swap
  bool ok = false;
};

/// The fp64 stage loop of blas::getrf_blocked, call for call (same panel
/// options, swap plans, TRSM and GEMM options), so its factors and pivots
/// must equal getrf_blocked's bit for bit.
Stages replay_getrf(xphi::util::MatrixView<double> a,
                    std::span<std::size_t> ipiv, std::size_t nb,
                    ThreadPool* pool, std::uint64_t op) {
  Stages st;
  const std::size_t n = a.rows();
  blas::PanelOptions panel;
  panel.pool = pool;
  const auto t_all = Clock::now();
  for (std::size_t i = 0; i < n; i += nb) {
    const std::size_t jb = std::min(nb, n - i);
    const std::size_t rest = n - i - jb;
    bool ok = true;
    st.panel += timed("blas", "blas::getrf_panel", op, [&] {
      ok = blas::getrf_panel<double>(a.block(i, i, n - i, jb),
                                     ipiv.subspan(i, jb), panel);
    });
    if (!ok) return st;
    st.panel_flops += xphi::util::getrf_panel_flops(n - i, jb);
    std::size_t swaps = 0;
    for (std::size_t j = 0; j < jb; ++j) {
      ipiv[i + j] += i;
      swaps += ipiv[i + j] != i + j;
    }
    st.laswp_bytes += 4.0 * static_cast<double>(swaps) *
                      static_cast<double>(n - jb) * sizeof(double);
    st.laswp += timed("blas", "blas::laswp_fused", op, [&] {
      const blas::SwapPlan plan = blas::make_swap_plan(
          std::span<const std::size_t>(ipiv.data(), n), i, i + jb);
      if (i > 0)
        blas::laswp_fused<double>(a.block(0, 0, n, i), plan, pool,
                                  panel.laswp_col_chunk);
      if (rest > 0)
        blas::laswp_fused<double>(a.block(0, i + jb, n, rest), plan, pool,
                                  panel.laswp_col_chunk);
    });
    if (rest == 0) continue;
    st.trsm += timed("blas", "blas::trsm_left_lower_unit", op, [&] {
      blas::trsm_left_lower_unit<double>(a.block(i, i, jb, jb),
                                         a.block(i, i + jb, jb, rest), pool);
    });
    st.trsm_flops += xphi::util::trsm_flops(jb, rest);
    st.gemm += timed("blas", "blas::gemm_tiled", op, [&] {
      blas::GemmOptions go;
      go.chunk_k = jb;
      go.kernel = panel.microkernel;
      go.pool = pool;
      blas::gemm_tiled<double>(-1.0, a.block(i + jb, i, rest, jb),
                               a.block(i, i + jb, jb, rest), 1.0,
                               a.block(i + jb, i + jb, rest, rest), go);
    });
    st.gemm_flops += xphi::util::gemm_flops(rest, rest, jb);
  }
  st.total = seconds_since(t_all);
  st.ok = true;
  return st;
}

template <class T>
bool same_bits(const Matrix<T>& a, const Matrix<T>& b) {
  return a.rows() == b.rows() && a.ld() == b.ld() &&
         std::memcmp(a.data(), b.data(), a.rows() * a.ld() * sizeof(T)) == 0;
}

/// Median of a per-rep field.
template <class R, class F>
double med(const std::vector<R>& reps, F&& field) {
  std::vector<double> v;
  for (const R& r : reps) v.push_back(field(r));
  return median(v);
}

/// Single-thread GF/s of C -= A*B at the LU trailing-update shape
/// (m = n = order - nb, k = nb) with the given kernel spec (null = auto).
template <class T>
double gemm_1t_gflops(std::size_t m, std::size_t k, const char* spec,
                      int reps, const char* span_name) {
  Matrix<T> a(m, k), b(k, m);
  Matrix<T> c = hpl_matrix<T>(m, 9);
  xphi::util::fill_hpl_matrix(a.view(), 7);
  xphi::util::fill_hpl_matrix(b.view(), 8);
  blas::GemmOptions go;
  go.chunk_k = k;
  go.kernel_spec = spec;
  std::vector<double> t;
  for (int r = 0; r <= reps; ++r) {  // rep 0 warms the pack buffers
    const double s = timed("blas", span_name, 0, [&] {
      blas::gemm_tiled<T>(T{-1}, a.view(), b.view(), T{1}, c.view(), go);
    });
    if (r > 0) t.push_back(s);
  }
  return xphi::util::gemm_flops(m, m, k) / median(t) * 1e-9;
}

/// Best pinned registry shape (at the auto-dispatched ISA) over auto-dispatch.
template <class T>
double dispatch_gap(std::size_t m, std::size_t k, int reps, double auto_gf,
                    std::string* best_name) {
  const mk::Selection<T> auto_sel = mk::select_kernel<T>(0);
  double best = 0;
  for (const mk::Kernel<T>& kern : mk::registry<T>()) {
    const std::string spec =
        std::string(kern.shape.name) + "@" + mk::isa_name(auto_sel.isa);
    const auto sel = mk::select_kernel_spec<T>(spec);
    if (!sel || !*sel || sel->isa != auto_sel.isa) continue;
    const double gf =
        gemm_1t_gflops<T>(m, k, spec.c_str(), reps, "blas::gemm_tiled(pinned)");
    if (gf > best) {
      best = gf;
      *best_name = spec;
    }
  }
  return auto_gf > 0 ? best / auto_gf : 0;
}

// ---- net: collective probes on a 4-rank World ---------------------------

struct NetProbe {
  double bcast_s = 0;
  double allreduce_s = 0;
  bool ok = true;
};

NetProbe probe_net(std::size_t panel_doubles, int reps) {
  NetProbe out;
  const std::vector<int> group = {0, 1, 2, 3};
  std::vector<double> bcast_t, allreduce_t;
  std::vector<char> bad(4, 0);  // one slot per rank: no shared bytes
  constexpr int kAllreduceCalls = 200;
  xphi::net::World world(4);
  {
    Span s("net", "net::World::run(probes)");
    world.run([&](xphi::net::Comm& comm) {
      int tag = 1;
      for (int r = 0; r <= reps; ++r) {
        xphi::net::Payload data;
        if (comm.rank() == 0) data.assign(panel_doubles, 0.5 + r);
        comm.barrier();
        const auto t0 = Clock::now();
        xphi::net::Payload got =
            comm.bcast_auto(0, group, std::move(data), tag++, panel_doubles);
        comm.barrier();
        const double s = seconds_since(t0);
        if (got.size() != panel_doubles || got.back() != 0.5 + r)
          bad[static_cast<std::size_t>(comm.rank())] = 1;
        if (comm.rank() == 0 && r > 0) bcast_t.push_back(s);
      }
      for (int r = 0; r <= reps; ++r) {
        comm.barrier();
        const auto t0 = Clock::now();
        for (int i = 0; i < kAllreduceCalls; ++i) {
          xphi::net::Payload sum =
              comm.allreduce(group, xphi::net::Payload(8, 1.0), tag++);
          if (sum.size() != 8 || sum[0] != 4.0)
            bad[static_cast<std::size_t>(comm.rank())] = 1;
        }
        comm.barrier();
        if (comm.rank() == 0 && r > 0)
          allreduce_t.push_back(seconds_since(t0) / kAllreduceCalls);
      }
    });
  }
  for (char b : bad) out.ok = out.ok && !b;
  out.bcast_s = median(bcast_t);
  out.allreduce_s = median(allreduce_t);
  return out;
}

}  // namespace

LayerResult run_layers(const Params& p) {
  const Sizes& z = p.sizes;
  const std::size_t n = z.lu_n, nb = z.nb;
  const int reps = z.layer_reps;
  LayerResult out;
  Metrics& m = out.metrics;
  auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "linbench: per-layer check failed: %s\n", what);
      out.correct = false;
    }
  };
  ThreadPool pool(3);

  // ---- host and hpcc ceilings ------------------------------------------
  std::string isa;
  double peak1 = 0, peak4 = 0;
  timed("host", "peak_probe(1 thread)", 0,
        [&] { peak1 = peak_gflops(1, &isa); });
  timed("host", "peak_probe(4 threads)", 0,
        [&] { peak4 = peak_gflops(4, nullptr); });
  xphi::hpcc::StreamOptions so;
  so.elements = z.stream_elements;
  so.pool = &pool;
  xphi::hpcc::StreamResult stream;
  timed("hpcc", "hpcc::run_stream", 0,
        [&] { stream = xphi::hpcc::run_stream(so); });
  check(stream.ok, "hpcc::run_stream verification");

  // ---- blas: the getrf_blocked stage replay -----------------------------
  const Matrix<double> a0 = hpl_matrix<double>(n, p.seed);
  Matrix<double> oracle(n, n), work(n, n);
  std::vector<std::size_t> oracle_piv(n), piv(n);
  std::vector<double> blocked_pool_s, blocked_serial_s;
  for (int r = 0; r < reps; ++r) {
    copy_matrix(a0, oracle);
    blocked_pool_s.push_back(
        timed("blas", "blas::getrf_blocked(pool 3)", 0, [&] {
          check(blas::getrf_blocked<double>(oracle.view(), oracle_piv, nb,
                                            &pool),
                "getrf_blocked(pool)");
        }));
  }
  std::vector<Stages> pooled, serial;
  for (int r = 0; r < reps; ++r) {
    copy_matrix(a0, work);
    pooled.push_back(replay_getrf(work.view(), piv, nb, &pool, 1 + r));
    check(pooled.back().ok && same_bits(work, oracle) && piv == oracle_piv,
          "pooled stage replay == getrf_blocked bitwise");
  }
  for (int r = 0; r < reps; ++r) {
    copy_matrix(a0, work);
    blocked_serial_s.push_back(
        timed("blas", "blas::getrf_blocked(1 thread)", 0, [&] {
          check(blas::getrf_blocked<double>(work.view(), piv, nb, nullptr),
                "getrf_blocked(serial)");
        }));
    check(same_bits(work, oracle) && piv == oracle_piv,
          "serial getrf_blocked == pooled bitwise");
    copy_matrix(a0, work);
    serial.push_back(replay_getrf(work.view(), piv, nb, nullptr, 100 + r));
    check(serial.back().ok && same_bits(work, oracle) && piv == oracle_piv,
          "serial stage replay == getrf_blocked bitwise");
  }
  const Stages& s0 = pooled.front();
  const double gemm_s = med(pooled, [](const Stages& s) { return s.gemm; });
  const double panel_s = med(pooled, [](const Stages& s) { return s.panel; });
  const double laswp_s = med(pooled, [](const Stages& s) { return s.laswp; });
  const double trsm_s = med(pooled, [](const Stages& s) { return s.trsm; });
  const double total_s = med(pooled, [](const Stages& s) { return s.total; });
  const double gemm_gf = s0.gemm_flops / gemm_s * 1e-9;
  const double gemm_s_1t = med(serial, [](const Stages& s) { return s.gemm; });
  const double gemm_gf_1t = s0.gemm_flops / gemm_s_1t * 1e-9;
  const double laswp_gbs = s0.laswp_bytes / laswp_s * 1e-9;

  // ---- blas: dispatch gaps at the trailing-update shape -----------------
  const std::size_t um = n - nb;
  std::string best_d, best_f;
  const double dgemm_auto = gemm_1t_gflops<double>(
      um, nb, nullptr, reps, "blas::gemm_tiled(auto)");
  const double dgap = dispatch_gap<double>(um, nb, reps, dgemm_auto, &best_d);
  const double sgemm_auto = gemm_1t_gflops<float>(
      um, nb, nullptr, reps, "blas::gemm_tiled<float>(auto)");
  const double sgap = dispatch_gap<float>(um, nb, reps, sgemm_auto, &best_f);

  // ---- lu: the DAG executor against the blocked driver ------------------
  std::vector<double> dag_s, dag_panel_s;
  xphi::lu::DagLuPackStats pack;
  for (int r = 0; r < reps; ++r) {
    copy_matrix(a0, work);
    double panel_task_s = 0;
    pack = {};
    dag_s.push_back(timed("lu", "lu::dag_lu_factor", 0, [&] {
      check(xphi::lu::dag_lu_factor(work.view(), piv, nb, 4, &pack, {},
                                    &panel_task_s),
            "dag_lu_factor");
    }));
    dag_panel_s.push_back(panel_task_s);
    check(same_bits(work, oracle) && piv == oracle_piv,
          "dag_lu_factor == getrf_blocked bitwise");
  }
  const double lu_getrf_flops = xphi::util::getrf_flops(n);
  const double dag_gf = lu_getrf_flops / median(dag_s) * 1e-9;
  const double pack_total =
      static_cast<double>(pack.pack_hits + pack.pack_misses);

  // ---- hpl: mixed precision on the blocked driver -----------------------
  const std::vector<double> b = hpl_rhs(n, p.seed);
  std::vector<double> mixed_factor_s, mixed_refine_s;
  int refine_iters = -1;
  for (int r = 0; r < reps; ++r) {
    xphi::hpl::MixedOptions mo;
    mo.nb = nb;
    mo.pool = &pool;
    xphi::hpl::MixedSolveResult res;
    timed("hpl", "hpl::solve_mixed", 0,
          [&] { res = xphi::hpl::solve_mixed(a0.view(), b, mo); });
    check(res.ok && blas::hpl_residual<double>(a0.view(), res.x, b) <
                        blas::kHplResidualThreshold,
          "solve_mixed residual");
    check(refine_iters < 0 || refine_iters == res.iterations,
          "refinement iterations repeat");
    refine_iters = res.iterations;
    mixed_factor_s.push_back(res.factor_seconds);
    mixed_refine_s.push_back(res.refine_seconds);
  }

  // ---- hpl + net: the distributed 2x2 solve -----------------------------
  const std::size_t dn = z.dist_n;
  std::vector<double> dist_wall, dist_compute, dist_wait;
  xphi::net::CommStats sum{};
  std::size_t high_water = 0;
  for (int r = 0; r < reps; ++r) {
    xphi::hpl::DistributedHplOptions opt;
    opt.lookahead = xphi::hpl::Lookahead::kPipelined;
    opt.pipeline_subsets = 4;
    xphi::hpl::DistributedHplResult res;
    const double wall = timed("hpl", "hpl::run_distributed_hpl", 0, [&] {
      res = xphi::hpl::run_distributed_hpl(dn, nb, xphi::hpl::Grid{2, 2},
                                           p.seed, opt);
    });
    check(res.ok, "run_distributed_hpl residual");
    xphi::net::CommStats s{};
    std::size_t hw = 0;
    double wait = 0;
    for (const auto& c : res.comm_stats) {
      s.messages_sent += c.messages_sent;
      s.bytes_sent += c.bytes_sent;
      s.tree_collectives += c.tree_collectives;
      s.ring_collectives += c.ring_collectives;
      hw = std::max(hw, c.mailbox_high_water);
      wait += c.wait_seconds;
    }
    check(r == 0 || (s.messages_sent == sum.messages_sent &&
                     s.bytes_sent == sum.bytes_sent &&
                     s.tree_collectives == sum.tree_collectives &&
                     s.ring_collectives == sum.ring_collectives),
          "distributed message counts repeat");
    sum = s;
    high_water = hw;
    const double ranks = static_cast<double>(res.comm_stats.size());
    dist_wall.push_back(wall);
    dist_wait.push_back(wait);
    dist_compute.push_back(wall - wait / ranks);
  }
  const Matrix<double> d0 = hpl_matrix<double>(dn, p.seed);
  const std::vector<double> db = hpl_rhs(dn, p.seed);
  Matrix<double> dwork(dn, dn);
  std::vector<std::size_t> dpiv(dn);
  std::vector<double> blocked_dn_s;
  for (int r = 0; r < reps; ++r) {
    copy_matrix(d0, dwork);
    std::vector<double> x = db;
    blocked_dn_s.push_back(timed(
        "blas", "blas::getrf_blocked+lu_solve_vector(pool 3)", 0, [&] {
          check(blas::getrf_blocked<double>(dwork.view(), dpiv, nb, &pool),
                "getrf_blocked(dist n)");
          blas::lu_solve_vector<double>(dwork.view(), dpiv, x);
        }));
  }
  const NetProbe net = probe_net(dn * nb, std::max(reps, 5));
  check(net.ok, "net probe payloads");

  // ---- serve: one cache-on replay set against the cache-off reference ---
  const std::vector<xphi::serve::Job> trace = serve_trace(z, p.seed);
  const xphi::serve::ServeConfig cfg = serve_config();
  xphi::serve::ServeConfig cold = cfg;
  cold.use_cache = false;
  xphi::serve::ServeReport ref;
  timed("serve", "serve::run_server(reference)", 0,
        [&] { ref = xphi::serve::run_server(trace, cold); });
  std::vector<double> hit_us, miss_us, hit_ratio, util, dwait;
  xphi::serve::ServeReport rep;
  for (int r = 0; r < reps; ++r) {
    const double wall = timed("serve", "serve::run_server", 0, [&] {
      rep = xphi::serve::run_server(trace, cfg);
    });
    double busy = 0;
    for (std::size_t i = 0; i < rep.jobs.size(); ++i) {
      const auto& j = rep.jobs[i];
      check(!j.rejected && i < ref.jobs.size() && j.x == ref.jobs[i].x,
            "serve answer bits == cache-off reference");
      busy += j.wall_service_s;
      (j.cache_hit ? hit_us : miss_us).push_back(j.wall_service_s * 1e6);
    }
    hit_ratio.push_back(static_cast<double>(rep.cache_hits) /
                        static_cast<double>(rep.cache_hits + rep.cache_misses));
    util.push_back(busy / (cfg.workers * wall));
    dwait.push_back(rep.comm.empty() ? 0 : rep.comm[0].wait_seconds);
  }

  const double mixed_f = median(mixed_factor_s);
  const double dwall = median(dist_wall);
  m = {
      {"host.peak_gflops_1c", peak1, "GF/s"},
      {"host.peak_gflops", peak4, "GF/s"},
      {"hpcc.triad_gbs", stream.triad_gbs, "GB/s"},
      {"blas.gemm_s", gemm_s, "s"},
      {"blas.panel_s", panel_s, "s"},
      {"blas.laswp_s", laswp_s, "s"},
      {"blas.trsm_s", trsm_s, "s"},
      {"blas.gemm_gflops", gemm_gf, "GF/s"},
      {"blas.gemm_gflops_1t", gemm_gf_1t, "GF/s"},
      {"blas.gemm_frac_peak", gemm_gf / peak4, "frac"},
      {"blas.trsm_gflops", s0.trsm_flops / trsm_s * 1e-9, "GF/s"},
      {"blas.panel_gflops", s0.panel_flops / panel_s * 1e-9, "GF/s"},
      {"blas.laswp_gbs", laswp_gbs, "GB/s"},
      {"blas.laswp_frac_triad", laswp_gbs / stream.triad_gbs, "frac"},
      {"blas.critical_frac", (panel_s + laswp_s + trsm_s) / total_s, "frac"},
      {"blas.dispatch_gap", dgap, "ratio"},
      {"blas.sgemm_gflops", sgemm_auto, "GF/s"},
      {"blas.sdispatch_gap", sgap, "ratio"},
      {"util.pool_speedup", gemm_gf / gemm_gf_1t, "ratio"},
      {"lu.factor_s", median(dag_s), "s"},
      {"lu.panel_task_s", median(dag_panel_s), "s"},
      {"lu.pack_hit_ratio", pack_total > 0 ? pack.pack_hits / pack_total : 0,
       "frac"},
      {"lu.frac_of_blocked", median(blocked_pool_s) / median(dag_s), "ratio"},
      {"lu.speedup_vs_serial", median(blocked_serial_s) / median(dag_s),
       "ratio"},
      {"lu.frac_of_gemm", dag_gf / gemm_gf, "ratio"},
      {"hpl.mixed_factor_s", mixed_f, "s"},
      {"hpl.mixed_refine_s", median(mixed_refine_s), "s"},
      {"hpl.refine_iters", static_cast<double>(refine_iters), "count"},
      {"hpl.mixed_factor_speedup", median(blocked_pool_s) / mixed_f, "ratio"},
      {"hpl.dist_compute_s", median(dist_compute), "s"},
      {"hpl.dist_frac_of_blocked", median(blocked_dn_s) / dwall, "ratio"},
      {"net.messages", static_cast<double>(sum.messages_sent), "count"},
      {"net.bytes", static_cast<double>(sum.bytes_sent), "B"},
      {"net.tree_collectives", static_cast<double>(sum.tree_collectives),
       "count"},
      {"net.ring_collectives", static_cast<double>(sum.ring_collectives),
       "count"},
      {"net.wait_s", median(dist_wait), "s"},
      {"net.wait_frac", median(dist_wait) / (4 * dwall), "frac"},
      {"net.mailbox_high_water", static_cast<double>(high_water), "count"},
      {"net.bcast_gbs",
       static_cast<double>(dn * nb * sizeof(double)) / net.bcast_s * 1e-9,
       "GB/s"},
      {"net.allreduce_us", net.allreduce_s * 1e6, "us"},
      {"serve.cache_hit_ratio", median(hit_ratio), "frac"},
      {"serve.hit_service_us_p50", percentile(hit_us, 0.5), "us"},
      {"serve.miss_service_us_p50", percentile(miss_us, 0.5), "us"},
      {"serve.jobs_per_batch",
       static_cast<double>(rep.completed) / static_cast<double>(rep.batches),
       "count"},
      {"serve.rejected", static_cast<double>(rep.rejected), "count"},
      {"serve.soft_cap_breaches", static_cast<double>(rep.soft_cap_breaches),
       "count"},
      {"serve.worker_util", median(util), "frac"},
      {"serve.dispatcher_wait_s", median(dwait), "s"},
      {"serve.virtual_p99_ms", rep.p99_virtual_latency_s * 1e3, "ms"},
  };
  out.notes = {
      {"peak_isa", isa},
      {"stream_array_bytes",
       std::to_string(z.stream_elements * sizeof(double))},
      {"llc_bytes", std::to_string(llc_bytes())},
      {"best_pinned_fp64", best_d},
      {"best_pinned_fp32", best_f},
  };
  return out;
}

}  // namespace linbench
