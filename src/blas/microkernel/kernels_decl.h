// The shape family shared by the registry and every ISA kernel TU.
//
// Each shape is (Mr, Nr, TileRows): the register block is Mr x Nr and the
// packed A-tile height is TileRows (an Mr multiple near the Basic Kernel 2
// blocking of 30, so task granularity in gemm_tiled stays comparable across
// shapes). The X-macro keeps the registry rows and the per-ISA function
// tables in the same order without any runtime registration step. No two
// shapes share a (TileRows, Nr) pack geometry, so a packed operand pair
// names exactly one shape (select_for_tile relies on this).
//
//   3x8  — 12 two-lane XMM accumulators at the generic tier, inside SSE2's
//          16-register file; the generic tier's fp64 auto shape.
//   4x8  — one register row per C row at AVX-512 fp64 (4 zmm accumulators)
//          and AVX2 fp32; the fp64 auto shape at AVX2 and the fp32 auto
//          shape at AVX2 and generic.
//   4x12 — wide variant: Nr = 12 splits into 4-lane vectors at every vector
//          tier (3 per row), stressing the B stream.
//   8x8  — tall variant: 8 zmm accumulators at AVX-512 fp64; the fp64
//          auto shape there, ahead of 4x8 end to end (DESIGN.md §12).
//   4x16 — fp32's full-width register row at AVX-512 (one 16-lane zmm per
//          C row); the fp32 auto shape there (DESIGN.md §12).
//
// The lane count of each kernel is the widest power of two that fits its
// TU's vector register and divides Nr (kernels_inl.h), so the same shape is
// one, two or four vectors per row depending on the tier.
#pragma once

#include <cstddef>

namespace xphi::blas::mk {

#define XPHI_MK_FOR_EACH_SHAPE(X) \
  X(3, 8, 30)                     \
  X(4, 8, 28)                     \
  X(4, 12, 28)                    \
  X(8, 8, 32)                     \
  X(4, 16, 28)

inline constexpr std::size_t kShapeCount = 5;

/// Per-shape entry points of one ISA translation unit.
template <class T>
struct Fns {
  using FullFn = void (*)(const T* a_tile, const T* b_tile, std::size_t k,
                          T alpha, T beta, T* c, std::size_t ldc);
  using MaskedFn = void (*)(const T* a_tile, const T* b_tile, std::size_t k,
                            T alpha, T beta, T* c, std::size_t ldc,
                            std::size_t rows, std::size_t cols);
  FullFn full = nullptr;
  MaskedFn masked = nullptr;
  explicit operator bool() const noexcept { return full != nullptr; }
};

template <class T>
struct IsaTable {
  Fns<T> fns[kShapeCount];  // XPHI_MK_FOR_EACH_SHAPE order
};

// One accessor pair per kernel TU. The generic TU is always compiled; the
// AVX2/AVX-512 TUs are added only when the toolchain accepts their flags,
// and registry.cc is told which ones exist via XPHI_MK_HAVE_* defines.
const IsaTable<double>& generic_table_d();
const IsaTable<float>& generic_table_f();
#if defined(XPHI_MK_HAVE_AVX2)
const IsaTable<double>& avx2_table_d();
const IsaTable<float>& avx2_table_f();
#endif
#if defined(XPHI_MK_HAVE_AVX512)
const IsaTable<double>& avx512_table_d();
const IsaTable<float>& avx512_table_f();
#endif

}  // namespace xphi::blas::mk
