// Machine descriptions for the two architectures in the paper (Table I).
//
// The reproduction cannot run on Knights Corner silicon, so every performance
// number in the benchmark harness is produced by models parameterized by
// these specs. The presets reproduce Table I exactly:
//
//                       Xeon E5-2670 (SNB EP)   Xeon Phi (Knights Corner)
//   sockets x cores x SMT      2 x 8 x 2             1 x 61 x 4
//   clock                      2.6 GHz               1.1 GHz
//   SP / DP GFLOPS             666 / 333             2148 / 1074
//   L1 / L2 / L3 per core      32K / 256K / 20M      32K / 512K / --
//   DRAM                       128 GB                8 GB GDDR
//   STREAM bandwidth           76 GB/s               150 GB/s
//   PCIe bandwidth             6 GB/s (per link)
#pragma once

#include <cstddef>
#include <string>

namespace xphi::sim {

enum class Precision { kDouble, kSingle };

inline constexpr std::size_t kKiB = 1024;
inline constexpr std::size_t kMiB = 1024 * kKiB;
inline constexpr std::size_t kGiB = 1024 * kMiB;

struct MachineSpec {
  std::string name;
  int sockets = 1;
  int cores_per_socket = 1;
  int threads_per_core = 1;
  double freq_ghz = 1.0;
  // Per-core per-cycle flop throughput (FMA counted as two flops).
  double dp_flops_per_cycle = 2.0;
  double sp_flops_per_cycle = 4.0;
  std::size_t l1_bytes = 32 * kKiB;   // per core
  std::size_t l2_bytes = 256 * kKiB;  // per core
  std::size_t l3_bytes = 0;           // total (0 = none)
  std::size_t dram_bytes = 0;
  double stream_bw_gbs = 0.0;  // achievable STREAM bandwidth, GB/s
  // Number of cores the OS reserves (Knights Corner keeps the last core for
  // the Linux kernel; native DGEMM/HPL efficiencies in the paper are quoted
  // against the remaining cores).
  int os_reserved_cores = 0;
  // Board/package power under load (paper Section VII: the host "consumes
  // comparable power" to the card but delivers several times fewer flops —
  // the energy argument for the fully-native future-work direction).
  double tdp_watts = 0.0;

  int total_cores() const noexcept { return sockets * cores_per_socket; }
  int compute_cores() const noexcept { return total_cores() - os_reserved_cores; }
  int total_threads() const noexcept { return total_cores() * threads_per_core; }

  double flops_per_cycle(Precision p) const noexcept {
    return p == Precision::kDouble ? dp_flops_per_cycle : sp_flops_per_cycle;
  }

  /// Peak GFLOPS over `cores` cores.
  double peak_gflops(Precision p, int cores) const noexcept {
    return flops_per_cycle(p) * freq_ghz * cores;
  }
  /// Peak over all cores (the basis for offload/hybrid efficiencies).
  double peak_gflops(Precision p = Precision::kDouble) const noexcept {
    return peak_gflops(p, total_cores());
  }
  /// Peak over compute cores (the basis for native efficiencies).
  double native_peak_gflops(Precision p = Precision::kDouble) const noexcept {
    return peak_gflops(p, compute_cores());
  }

  double cycle_seconds() const noexcept { return 1e-9 / freq_ghz; }

  /// Table I presets.
  static MachineSpec knights_corner();
  static MachineSpec sandy_bridge_ep();
};

}  // namespace xphi::sim
