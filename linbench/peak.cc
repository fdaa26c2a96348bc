// Host compute ceiling: an unfused multiply + add probe at the widest ISA
// the host runs. Unfused because the library builds with -ffp-contract=off
// and its micro-kernels issue separate mul and add instructions, so this is
// the peak those kernels can reach. Each of kChains independent chains
// computes x = x * m + c; m < 1 keeps every value bounded and normal.
#include <immintrin.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "linbench.h"

namespace linbench {
namespace {

constexpr int kChains = 16;
constexpr long kIters = 1L << 22;

__attribute__((target("avx512f"))) double probe_avx512(long iters) {
  __m512d x[kChains];
  for (int j = 0; j < kChains; ++j) x[j] = _mm512_set1_pd(1.0 + j * 1e-3);
  const __m512d m = _mm512_set1_pd(0.999999);
  const __m512d c = _mm512_set1_pd(1e-6);
  for (long i = 0; i < iters; ++i)
    for (int j = 0; j < kChains; ++j)
      x[j] = _mm512_add_pd(_mm512_mul_pd(x[j], m), c);
  alignas(64) double lanes[8];
  double sink = 0;
  for (int j = 0; j < kChains; ++j) {
    _mm512_store_pd(lanes, x[j]);
    for (double v : lanes) sink += v;
  }
  return sink;
}

__attribute__((target("avx2"))) double probe_avx2(long iters) {
  __m256d x[kChains];
  for (int j = 0; j < kChains; ++j) x[j] = _mm256_set1_pd(1.0 + j * 1e-3);
  const __m256d m = _mm256_set1_pd(0.999999);
  const __m256d c = _mm256_set1_pd(1e-6);
  for (long i = 0; i < iters; ++i)
    for (int j = 0; j < kChains; ++j)
      x[j] = _mm256_add_pd(_mm256_mul_pd(x[j], m), c);
  alignas(32) double lanes[4];
  double sink = 0;
  for (int j = 0; j < kChains; ++j) {
    _mm256_store_pd(lanes, x[j]);
    sink += lanes[0] + lanes[1] + lanes[2] + lanes[3];
  }
  return sink;
}

double probe_sse2(long iters) {
  __m128d x[kChains];
  for (int j = 0; j < kChains; ++j) x[j] = _mm_set1_pd(1.0 + j * 1e-3);
  const __m128d m = _mm_set1_pd(0.999999);
  const __m128d c = _mm_set1_pd(1e-6);
  for (long i = 0; i < iters; ++i)
    for (int j = 0; j < kChains; ++j)
      x[j] = _mm_add_pd(_mm_mul_pd(x[j], m), c);
  alignas(16) double lanes[2];
  double sink = 0;
  for (int j = 0; j < kChains; ++j) {
    _mm_store_pd(lanes, x[j]);
    sink += lanes[0] + lanes[1];
  }
  return sink;
}

struct Probe {
  double (*fn)(long);
  int lanes;
  const char* isa;
};

Probe widest_probe() {
  if (__builtin_cpu_supports("avx512f")) return {probe_avx512, 8, "avx512f"};
  if (__builtin_cpu_supports("avx2")) return {probe_avx2, 4, "avx2"};
  return {probe_sse2, 2, "sse2"};
}

}  // namespace

double peak_gflops(int threads, std::string* isa) {
  const Probe probe = widest_probe();
  if (isa != nullptr) *isa = probe.isa;
  const double flops_per_thread =
      2.0 * probe.lanes * kChains * static_cast<double>(kIters);
  // Median of five timed rounds after one warm-up round; each round starts
  // all threads together and ends when the last one finishes.
  std::vector<double> rates;
  std::vector<double> sinks(static_cast<std::size_t>(threads), 0.0);
  for (int round = 0; round < 6; ++round) {
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t)
      pool.emplace_back([&, t] {
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        sinks[static_cast<std::size_t>(t)] += probe.fn(kIters);
      });
    while (ready.load() < threads - 1) std::this_thread::yield();
    const auto t0 = std::chrono::steady_clock::now();
    go.store(true);
    sinks[0] += probe.fn(kIters);
    for (auto& th : pool) th.join();
    const double s = seconds_since(t0);
    if (round > 0) rates.push_back(flops_per_thread * threads / s * 1e-9);
  }
  // The sums keep the probe's results live; they are never zero.
  for (double v : sinks)
    if (!(v > 0)) return 0;
  return median(rates);
}

}  // namespace linbench
