#include "sim/machine.h"

namespace xphi::sim {

MachineSpec MachineSpec::knights_corner() {
  MachineSpec m;
  m.name = "Knights Corner";
  m.sockets = 1;
  m.cores_per_socket = 61;
  m.threads_per_core = 4;
  m.freq_ghz = 1.1;
  // 8-wide DP FMA per cycle = 16 DP flops; 16-wide SP FMA = 32 SP flops.
  m.dp_flops_per_cycle = 16.0;
  m.sp_flops_per_cycle = 32.0;
  m.l1_bytes = 32 * kKiB;
  m.l2_bytes = 512 * kKiB;
  m.l3_bytes = 0;
  m.dram_bytes = 8 * kGiB;
  m.stream_bw_gbs = 150.0;
  m.os_reserved_cores = 1;  // last core reserved by the card OS
  m.tdp_watts = 245.0;      // Xeon Phi 5110P-class card
  return m;
}

MachineSpec MachineSpec::sandy_bridge_ep() {
  MachineSpec m;
  m.name = "Sandy Bridge EP (2x E5-2670)";
  m.sockets = 2;
  m.cores_per_socket = 8;
  m.threads_per_core = 2;
  m.freq_ghz = 2.6;
  // AVX: 4-wide DP multiply + 4-wide DP add per cycle = 8 DP flops.
  m.dp_flops_per_cycle = 8.0;
  m.sp_flops_per_cycle = 16.0;
  m.l1_bytes = 32 * kKiB;
  m.l2_bytes = 256 * kKiB;
  m.l3_bytes = 20480 * kKiB;
  m.dram_bytes = 128 * kGiB;
  m.stream_bw_gbs = 76.0;
  m.os_reserved_cores = 0;
  m.tdp_watts = 230.0;  // 2 x 115 W E5-2670
  return m;
}

}  // namespace xphi::sim
