// The four end-to-end workloads. Each one builds its inputs from the seed,
// runs `setups` set-ups (inputs + warm-up op), then repeats its op for the
// requested seconds. Every op is verified outside its timed region.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "blas/lu_kernels.h"
#include "blas/residual.h"
#include "hpl/distributed.h"
#include "hpl/mixed.h"
#include "linbench.h"
#include "lu/functional.h"
#include "serve/server.h"
#include "util/flops.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace linbench {
namespace {

using Clock = std::chrono::steady_clock;
using xphi::util::Matrix;

/// One op's record. An LU op is one solve; a serve op is one replay of the
/// trace, whose jobs each count as attempted.
struct Sample {
  double seconds = 0;
  double flops = 0;  // HPL-rated flops of the solve (LU ops)
  std::size_t jobs = 0;  // verified jobs (serve ops)
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> service_s;  // per-job wall service time (serve ops)
};

bool residual_ok(const Matrix<double>& a, const std::vector<double>& x,
                 const std::vector<double>& b) {
  return x.size() == b.size() &&
         xphi::blas::hpl_residual<double>(a.view(), x, b) <
             xphi::blas::kHplResidualThreshold;
}

/// An LU op's sample: one attempted solve of order n.
Sample lu_sample(std::size_t n, double seconds, bool ok) {
  Sample s;
  s.seconds = seconds;
  s.flops = xphi::util::linpack_flops(n);
  s.attempted = 1;
  s.failed = ok ? 0 : 1;
  return s;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs (and any pool) from scratch.
  virtual void prepare() = 0;
  virtual Sample op(std::uint64_t id) = 0;
};

/// native_lu: DAG LU on 4 workers + the triangular solve, from a pristine
/// copy (the copy is untimed).
class NativeLu final : public Workload {
 public:
  explicit NativeLu(const Params& p)
      : n_(p.sizes.lu_n), nb_(p.sizes.nb), seed_(p.seed) {}

  void prepare() override {
    a0_ = hpl_matrix(n_, seed_);
    b_ = hpl_rhs(n_, seed_);
    a_ = Matrix<double>(n_, n_);
  }

  Sample op(std::uint64_t id) override {
    std::memcpy(a_.data(), a0_.data(), n_ * n_ * sizeof(double));
    std::vector<std::size_t> ipiv(n_);
    std::vector<double> x = b_;
    const auto t0 = Clock::now();
    bool ok = false;
    {
      Span s("lu", "lu::dag_lu_factor", id);
      ok = xphi::lu::dag_lu_factor(a_.view(), ipiv, nb_, 4);
    }
    if (ok) {
      Span s("blas", "blas::lu_solve_vector", id);
      xphi::blas::lu_solve_vector<double>(a_.view(), ipiv, x);
    }
    const double seconds = seconds_since(t0);
    return lu_sample(n_, seconds, ok && residual_ok(a0_, x, b_));
  }

 private:
  std::size_t n_, nb_;
  std::uint64_t seed_;
  Matrix<double> a0_, a_;
  std::vector<double> b_;
};

/// mixed_lu: fp32 blocked factorization on a ThreadPool(3) plus fp64
/// refinement to the unrelaxed gate.
class MixedLu final : public Workload {
 public:
  explicit MixedLu(const Params& p)
      : n_(p.sizes.lu_n), nb_(p.sizes.nb), seed_(p.seed) {}

  void prepare() override {
    pool_ = std::make_unique<xphi::util::ThreadPool>(3);
    a0_ = hpl_matrix(n_, seed_);
    b_ = hpl_rhs(n_, seed_);
  }

  Sample op(std::uint64_t id) override {
    xphi::hpl::MixedOptions mo;
    mo.nb = nb_;
    mo.factor_workers = 1;
    mo.pool = pool_.get();
    const auto t0 = Clock::now();
    xphi::hpl::MixedSolveResult res;
    {
      Span s("hpl", "hpl::solve_mixed", id);
      res = xphi::hpl::solve_mixed(a0_.view(), b_, mo);
    }
    const double seconds = seconds_since(t0);
    return lu_sample(n_, seconds, res.ok && residual_ok(a0_, res.x, b_));
  }

 private:
  std::size_t n_, nb_;
  std::uint64_t seed_;
  std::unique_ptr<xphi::util::ThreadPool> pool_;
  Matrix<double> a0_;
  std::vector<double> b_;
};

/// hpl_2x2: distributed HPL on a 2x2 grid with pipelined look-ahead. The
/// call generates the matrix on the ranks itself; the benchmark keeps its
/// own copy to check the residual independently.
class Hpl2x2 final : public Workload {
 public:
  explicit Hpl2x2(const Params& p)
      : n_(p.sizes.dist_n), nb_(p.sizes.nb), seed_(p.seed) {}

  void prepare() override {
    a0_ = hpl_matrix(n_, seed_);
    b_ = hpl_rhs(n_, seed_);
  }

  Sample op(std::uint64_t id) override {
    xphi::hpl::DistributedHplOptions opt;
    opt.lookahead = xphi::hpl::Lookahead::kPipelined;
    opt.pipeline_subsets = 4;
    const auto t0 = Clock::now();
    xphi::hpl::DistributedHplResult res;
    {
      Span s("hpl", "hpl::run_distributed_hpl", id);
      res = xphi::hpl::run_distributed_hpl(n_, nb_, xphi::hpl::Grid{2, 2},
                                           seed_, opt);
    }
    const double seconds = seconds_since(t0);
    return lu_sample(n_, seconds, dist_ok(res));
  }

 private:
  bool dist_ok(const xphi::hpl::DistributedHplResult& res) const {
    if (!res.ok || !residual_ok(a0_, res.x, b_) ||
        !(res.distributed_residual < xphi::blas::kHplResidualThreshold))
      return false;
    // The distributed triangular solves must agree with the solve on the
    // gathered factors to a few ulps of the solution's magnitude.
    double x_inf = 1;
    for (double v : res.x) x_inf = std::max(x_inf, std::abs(v));
    return res.solve_agreement <= 1e-9 * x_inf;
  }

  std::size_t n_, nb_;
  std::uint64_t seed_;
  Matrix<double> a0_;
  std::vector<double> b_;
};

}  // namespace

/// Offered load of the serve_repeat trace. Scheduling runs in virtual time,
/// so this sets how many jobs queue per lane, not the wall-clock rate. At
/// the library's 300 us the cache-off reference replay (which charges every
/// batch a factorization) overflows the admission queues of a 1200-job
/// trace and rejects jobs; 500 us keeps every job admitted on both replays.
constexpr double kMeanInterarrivalUs = 500;

std::vector<double> hpl_rhs(std::size_t n, std::uint64_t seed) {
  std::vector<double> b(n);
  xphi::util::Rng rng(seed ^ 0xb0b);
  for (auto& v : b) v = rng.next_centered();
  return b;
}

std::vector<xphi::serve::Job> serve_trace(const Sizes& sizes,
                                          std::uint64_t seed) {
  xphi::serve::TrafficConfig tc;
  tc.mix = xphi::serve::Mix::kRepeatRhs;
  tc.jobs = sizes.serve_jobs;
  tc.sizes = sizes.serve_sizes;
  tc.seed = seed;
  tc.mean_interarrival_us = kMeanInterarrivalUs;
  return xphi::serve::generate_trace(tc);
}

xphi::serve::ServeConfig serve_config() {
  xphi::serve::ServeConfig cfg;
  cfg.workers = 2;
  return cfg;
}

namespace {

/// serve_repeat: the solve server over a repeat-RHS trace with the default
/// config at two workers. Every answer is compared bit for bit with a
/// cache-off replay of the same trace made during set-up.
class ServeRepeat final : public Workload {
 public:
  explicit ServeRepeat(const Params& p) : sizes_(p.sizes), seed_(p.seed) {}

  void prepare() override {
    trace_ = serve_trace(sizes_, seed_);
    xphi::serve::ServeConfig cold = serve_config();
    cold.use_cache = false;
    Span s("serve", "serve::run_server(reference)");
    reference_ = xphi::serve::run_server(trace_, cold);
  }

  Sample op(std::uint64_t id) override {
    const auto t0 = Clock::now();
    xphi::serve::ServeReport rep;
    {
      Span s("serve", "serve::run_server", id);
      rep = xphi::serve::run_server(trace_, serve_config());
    }
    Sample out;
    out.seconds = seconds_since(t0);
    for (std::size_t i = 0; i < trace_.size(); ++i) {
      ++out.attempted;
      const bool ok = i < rep.jobs.size() && !rep.jobs[i].rejected &&
                      i < reference_.jobs.size() &&
                      !reference_.jobs[i].x.empty() &&
                      rep.jobs[i].x == reference_.jobs[i].x;
      if (!ok) {
        ++out.failed;
        continue;
      }
      ++out.jobs;
      out.service_s.push_back(rep.jobs[i].wall_service_s);
    }
    return out;
  }

 private:
  Sizes sizes_;
  std::uint64_t seed_;
  std::vector<xphi::serve::Job> trace_;
  xphi::serve::ServeReport reference_;
};

std::unique_ptr<Workload> make_workload(const Params& p) {
  if (p.workload == "native_lu") return std::make_unique<NativeLu>(p);
  if (p.workload == "mixed_lu") return std::make_unique<MixedLu>(p);
  if (p.workload == "hpl_2x2") return std::make_unique<Hpl2x2>(p);
  if (p.workload == "serve_repeat") return std::make_unique<ServeRepeat>(p);
  return nullptr;
}

void count(WorkloadResult& out, const Sample& s) {
  out.attempted += s.attempted;
  out.failed += s.failed;
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "native_lu" || name == "mixed_lu" || name == "hpl_2x2" ||
         name == "serve_repeat";
}

WorkloadResult run_workload(const Params& p) {
  std::unique_ptr<Workload> w = make_workload(p);
  WorkloadResult out;

  // Set-up: inputs, pool, reference replay and one verified warm-up op,
  // repeated; setup_s is the median.
  std::vector<double> setup_s;
  for (int i = 0; i < p.sizes.setups; ++i) {
    const auto t0 = Clock::now();
    Span s("setup", "setup");
    w->prepare();
    count(out, w->op(0));
    setup_s.push_back(seconds_since(t0));
  }

  // Timed ops. A traced run alternates traced and untraced ops, so the
  // tracing overhead is measured on the same inputs in the same process.
  std::vector<Sample> untraced;
  std::vector<double> traced_s;
  const auto loop0 = Clock::now();
  const std::size_t min_ops = p.traced ? 4 : 2;
  for (std::uint64_t id = 1;
       seconds_since(loop0) < p.seconds || id <= min_ops; ++id) {
    const bool trace_op = p.traced && id % 2 == 0;
    enable_spans(trace_op);
    Sample s = w->op(id);
    count(out, s);
    if (trace_op)
      traced_s.push_back(s.seconds);
    else
      untraced.push_back(std::move(s));
  }
  enable_spans(p.traced);

  std::vector<double> gflops, jobs_per_s, untraced_s, service;
  for (const Sample& s : untraced) {
    untraced_s.push_back(s.seconds);
    if (s.failed > 0) continue;
    gflops.push_back(s.flops / s.seconds * 1e-9);
    jobs_per_s.push_back(static_cast<double>(s.jobs) / s.seconds);
    service.insert(service.end(), s.service_s.begin(), s.service_s.end());
  }
  if (p.traced) {
    const double base = median(untraced_s);
    out.overhead_frac = base > 0 ? median(traced_s) / base - 1 : 0;
  }
  if (p.workload == "serve_repeat") {
    std::printf("service: %zu job samples\n", service.size());
    out.metrics = {
        {"jobs_per_s", median(jobs_per_s), "1/s"},
        {"service_us_p50", percentile(service, 0.50) * 1e6, "us"},
        {"service_us_p99", percentile(service, 0.99) * 1e6, "us"},
    };
  } else {
    out.metrics = {{"gflops", median(gflops), "GF/s"}};
  }
  out.metrics.push_back({"setup_s", median(setup_s), "s"});
  return out;
}

}  // namespace linbench
