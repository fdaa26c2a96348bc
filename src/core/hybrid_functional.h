// Functional (real-numerics) single-node hybrid HPL with basic look-ahead.
//
// The faithful twin of Figure 8b, executed with real threads and real math:
// per stage, the U panel is solved and the columns of the *next* panel are
// updated first; the next panel factorization then runs asynchronously on a
// "host" thread while the offload engine (card threads + two-ended work
// stealing from core/offload_functional.h) updates the rest of the trailing
// matrix. The result is residual-checked like every other driver.
#pragma once

#include <cstddef>
#include <cstdint>

#include "blas/lu_kernels.h"
#include "core/offload_functional.h"

namespace xphi::core {

enum class FunctionalScheme {
  kNoLookahead,  // Figure 8a: factor panels synchronously
  kBasic,        // Figure 8b: next panel factored async during the update
  kPipelined,    // Figure 8c: swap/solve/update pipelined over column subsets
};

struct HybridFunctionalConfig {
  std::size_t n = 256;
  std::size_t nb = 32;
  FunctionalOffloadConfig offload{};
  FunctionalScheme scheme = FunctionalScheme::kBasic;
  int pipeline_subsets = 4;  // column subsets for kPipelined
  // Critical-path kernel knobs of the panel factorization and the row
  // swaps. The pool field is ignored: the panel runs serially beside the
  // offload engine. The offload engine's GEMM reads its micro-kernel from
  // offload.knobs.microkernel.
  blas::PanelOptions panel{};
};

struct HybridFunctionalResult {
  bool ok = false;
  double residual = 0;
  std::size_t lookahead_panels = 0;  // panels factored concurrently
  std::size_t pipelined_subsets = 0;  // column subsets processed (kPipelined)
};

/// Generates the seeded HPL system, factors it with the hybrid structure,
/// solves, and returns the residual.
HybridFunctionalResult run_functional_hybrid_hpl(
    const HybridFunctionalConfig& config, std::uint64_t seed = 42);

}  // namespace xphi::core
