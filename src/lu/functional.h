// Real-thread, real-numerics executor for the PanelDag (paper Figure 5c).
//
// Worker threads loop calling DAG.AvailableTask() and execute the LU kernels
// on an actual matrix. This is the functional twin of the discrete-event
// scheduler in lu/sim_scheduler.h: it validates that the DAG protocol
// (look-ahead ordering, stage counters, commit-by-owner) is race-free and
// numerically identical to the sequential blocked factorization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "blas/lu_kernels.h"
#include "util/matrix.h"

namespace xphi::lu {

/// Operand-pack reuse counters for one factorization (see blas/pack_cache.h).
/// Each stage with a trailing block packs its L21 panel once, in its panel
/// task (a miss), and every update task of the stage reuses it (a hit); a
/// repack after FIFO eviction under an unusual schedule adds a miss.
struct DagLuPackStats {
  std::size_t pack_hits = 0;
  std::size_t pack_misses = 0;
};

/// Factors `a` in place with the dynamic DAG scheduler on `workers` real
/// threads. ipiv receives absolute row interchanges (LAPACK style). Returns
/// false on a zero pivot. `pack_stats`, when given, receives the trailing
/// update's PackCache hit/miss counts; `panel_seconds` the summed wall-clock
/// of the panel factorizations (the critical path the DAG pipelines around;
/// the panel task's L21 pack is not included).
/// `panel` carries the critical-path kernel knobs of every panel task, swap
/// and trailing update; its pool field is ignored (the DAG workers are the
/// parallelism). The update resolves mk::select_kernel<T>(panel.microkernel)
/// once and packs L21 and U12 at that kernel's tile geometry, so every
/// update task runs the dispatched kernel (a pin included).
///
/// Scalar-generic: the float instantiation drives the same DAG protocol
/// through the float kernel stack (getrf_panel<float>, laswp_fused<float>,
/// trsm<float>, outer_product_packed<float> over PackCache<float>) — the
/// factorization half of mixed-precision HPL. Instantiated for float and
/// double in functional.cc.
template <class T>
bool dag_lu_factor_t(util::MatrixView<T> a, std::span<std::size_t> ipiv,
                     std::size_t nb, int workers,
                     DagLuPackStats* pack_stats = nullptr,
                     blas::PanelOptions panel = {},
                     double* panel_seconds = nullptr);

extern template bool dag_lu_factor_t<float>(util::MatrixView<float>,
                                            std::span<std::size_t>,
                                            std::size_t, int, DagLuPackStats*,
                                            blas::PanelOptions, double*);
extern template bool dag_lu_factor_t<double>(util::MatrixView<double>,
                                             std::span<std::size_t>,
                                             std::size_t, int, DagLuPackStats*,
                                             blas::PanelOptions, double*);

inline bool dag_lu_factor(util::MatrixView<double> a,
                          std::span<std::size_t> ipiv, std::size_t nb,
                          int workers, DagLuPackStats* pack_stats = nullptr,
                          blas::PanelOptions panel = {},
                          double* panel_seconds = nullptr) {
  return dag_lu_factor_t<double>(a, ipiv, nb, workers, pack_stats, panel,
                                 panel_seconds);
}

struct FunctionalLuResult {
  bool ok = false;
  double residual = 0;  // scaled HPL residual of the solve
  double factor_seconds = 0;  // wall-clock of the DAG factorization
  double panel_seconds = 0;  // summed wall-clock of the panel-factor tasks
  DagLuPackStats pack;  // operand-pack reuse across update tasks
};

/// End-to-end: generate the HPL matrix of size n, factor with the DAG
/// executor, solve, and return the residual.
FunctionalLuResult run_functional_dag_lu(std::size_t n, std::size_t nb,
                                         int workers, std::uint64_t seed = 42,
                                         blas::PanelOptions panel = {});

}  // namespace xphi::lu
