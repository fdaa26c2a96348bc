// Shared declarations of the repo benchmark (see README.md for the
// workloads, metric definitions and the layer -> end-to-end map).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/server.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace linbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;
/// Named strings stamped on the output (fingerprint, sizes, kernel names).
using Notes = std::vector<std::pair<std::string, std::string>>;

/// Problem sizes: the full benchmark and the toy self-test share every code
/// path and differ only here.
struct Sizes {
  std::size_t lu_n = 2048;      // native_lu, mixed_lu, blas/lu replays
  std::size_t nb = 64;
  std::size_t dist_n = 1536;    // hpl_2x2
  std::size_t serve_jobs = 1200;  // jobs per serve_repeat replay
  std::vector<std::size_t> serve_sizes = {64, 96, 128};
  std::size_t stream_elements = std::size_t{1} << 25;  // 256 MiB per array
  int setups = 5;  // set-ups per run; setup_s is their median
  int layer_reps = 5;  // repetitions of each per-layer measurement
};
/// The toy sizes of --smoke.
Sizes smoke_sizes();

struct Params {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  Sizes sizes;
};

/// Outcome of one workload run. `metrics` holds the end-to-end metrics;
/// `overhead_frac` is the traced-minus-untraced op time over the untraced
/// op time (traced runs only).
struct WorkloadResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Metrics metrics;
  double overhead_frac = 0;
};

bool is_workload(const std::string& name);
WorkloadResult run_workload(const Params& params);

/// The traced per-layer suite (the same for every workload). `correct` is
/// false when any of its checks fails, e.g. the stage replay's factors
/// differing from getrf_blocked's.
struct LayerResult {
  Metrics metrics;
  bool correct = true;
  Notes notes;
};
LayerResult run_layers(const Params& params);

/// Unfused mul+add peak at the widest ISA the host runs, on `threads`
/// simultaneous threads (GF/s). `isa` receives the probe's ISA label.
double peak_gflops(int threads, std::string* isa);

// ---- spans (traced runs only) -------------------------------------------

/// Turns span recording on. Off by default: untraced runs record nothing.
void enable_spans(bool on);

/// One benchmark call into a layer. Records [construction, destruction)
/// when spans were on at construction; `layer` is the module called (util,
/// blas, lu, hpl, net, serve, hpcc), "host" for the peak probe, or "setup".
class Span {
 public:
  Span(const char* layer, const char* name, std::uint64_t op = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* layer_;
  const char* name_;
  std::uint64_t op_;
  bool active_;  // spans were on at construction
  std::chrono::steady_clock::time_point t0_{};
};

/// Writes every recorded span as Chrome trace-event JSON (Perfetto and
/// chrome://tracing open it). `meta` lands in the file's otherData.
bool write_chrome_trace(const std::string& path, const Notes& meta);
std::size_t span_count();

// ---- inputs shared by the workloads and the per-layer suite ------------

/// The seeded HPL matrix every library driver generates for `seed`.
template <class T = double>
xphi::util::Matrix<T> hpl_matrix(std::size_t n, std::uint64_t seed) {
  xphi::util::Matrix<T> a(n, n);
  Span s("util", "util::fill_hpl_matrix");
  xphi::util::fill_hpl_matrix(a.view(), seed);
  return a;
}

/// The HPL right-hand side every library driver uses for `seed`.
std::vector<double> hpl_rhs(std::size_t n, std::uint64_t seed);

/// serve_repeat's trace and server config (the suite replays the same).
std::vector<xphi::serve::Job> serve_trace(const Sizes& sizes,
                                          std::uint64_t seed);
xphi::serve::ServeConfig serve_config();

// ---- small helpers -----------------------------------------------------

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Median (mean of the middle pair for even counts); 0 on empty.
double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1]; 0 on empty.
double percentile(std::vector<double> v, double q);

}  // namespace linbench
