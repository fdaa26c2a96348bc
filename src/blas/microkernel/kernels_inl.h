// Micro-kernel generator templates — the one source of truth for the
// M_r x N_r register-block loop nests that every ISA variant compiles.
//
// This header is deliberately include-guard-free and include-free: each
// kernel translation unit (kernels_generic.cc, kernels_avx2.cc,
// kernels_avx512.cc) #includes it *inside its own namespace* after pulling
// <cstddef> in at global scope and defining XPHI_MK_VECTOR_BYTES, the width
// of its vector registers (16, 32 or 64). The per-TU namespace is what keeps
// one ISA's instantiations out of another's: if the templates lived in a
// shared namespace, the inline (COMDAT) instantiations from the -mavx2 TU
// and the baseline TU would have identical mangled names and the linker
// would keep an arbitrary one — an AVX2-coded copy could then be reached on
// an SSE2-only host through what looks like the generic entry point.
// Distinct namespaces give distinct symbols, so each table entry points at
// code compiled with exactly its advertised flags.
//
// Register blocking (paper Section III-A): the accumulators are GCC vector-
// extension values, one row of the Mr x Nr block being Nr/lanes vectors.
// Each k step loads the B row as whole vectors once, then for each of the
// Mr rows broadcasts one A element and multiplies it into every vector of
// that row — no shuffles between the multiplies and adds.
//
// Determinism contract (DESIGN.md §12): for every shape and ISA, each C
// element accumulates its k-products in ascending k order into a single
// accumulator (one vector lane), then stores alpha*acc + beta*c once.
// Vector lanes are independent IEEE operations, so the lane width and the
// shape only group *elements*; they never reassociate a C element's
// reduction. Combined with -ffp-contract=off on every kernel TU (no FMA
// contraction of a*b+c), all registered kernels are bitwise-identical to
// gemm_ref for the same operand split.
//
// C prefetch: ukr_full touches C only after all k steps, and with a large
// ldc every C row of the tile sits in its own page, so those loads would
// miss at the end of an otherwise compute-bound tile. The kernel therefore
// prefetches (for write, into every cache level) the first and last element
// of each of the tile's C rows before its first register block; the two ends
// cover rows wider than one cache line and C that is not line-aligned. A
// prefetch is a hint: it changes no value, writes nothing and never faults,
// even on an address past an allocation, so every kernel stays bitwise equal
// to gemm_ref and the masked path's "no access outside the corner" contract
// is untouched (ukr_masked does not prefetch).

/// One Nr-wide row of the register block as vector-extension values: the
/// widest power-of-two lane count that fits the TU's vector register and
/// divides Nr. Loads and stores go through __builtin_memcpy, so neither the
/// packed operands nor C need vector alignment.
template <class T, std::size_t Nr>
struct Row {
  static constexpr std::size_t lanes() {
    std::size_t l = XPHI_MK_VECTOR_BYTES / sizeof(T);
    while (l > 1 && Nr % l != 0) l /= 2;
    return l;
  }
  static constexpr std::size_t kLanes = lanes();
  static constexpr std::size_t kVecs = Nr / kLanes;
  typedef T Vec __attribute__((vector_size(kLanes * sizeof(T))));

  static Vec load(const T* p) {
    Vec v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
  }
  static void store(T* p, Vec v) { __builtin_memcpy(p, &v, sizeof v); }
};

/// acc[r] += a(r, j) * b(j, :) for j ascending: one Mr-row register block
/// of a packed tile. a_rows: the block's first row in a TileRows x k
/// column-major tile; b_tile: k x Nr row-major.
template <class T, std::size_t Mr, std::size_t Nr, std::size_t TileRows>
[[gnu::always_inline]] inline void accumulate(
    const T* a_rows, const T* b_tile, std::size_t k,
    typename Row<T, Nr>::Vec (&acc)[Mr][Row<T, Nr>::kVecs]) {
  using R = Row<T, Nr>;
  for (std::size_t j = 0; j < k; ++j) {
    const T* a_col = a_rows + j * TileRows;  // contiguous column of a
    const T* b_row = b_tile + j * Nr;        // contiguous row of b
    typename R::Vec b[R::kVecs];
    for (std::size_t v = 0; v < R::kVecs; ++v)
      b[v] = R::load(b_row + v * R::kLanes);
    for (std::size_t r = 0; r < Mr; ++r) {
      const T av = a_col[r];
      for (std::size_t v = 0; v < R::kVecs; ++v) acc[r][v] += av * b[v];
    }
  }
}

/// Full-tile fast path: C is exactly TileRows x Nr, processed as Mr-row
/// register sub-blocks whose accumulators fit the target's vector file.
/// a_tile: TileRows x k column-major; b_tile: k x Nr row-major.
template <class T, std::size_t Mr, std::size_t Nr, std::size_t TileRows>
void ukr_full(const T* a_tile, const T* b_tile, std::size_t k, T alpha,
              T beta, T* c, std::size_t ldc) {
  static_assert(TileRows % Mr == 0, "Mr must divide the packed tile height");
  using R = Row<T, Nr>;
  for (std::size_t r = 0; r < TileRows; ++r) {
    __builtin_prefetch(c + r * ldc, /*rw=*/1, /*locality=*/3);
    __builtin_prefetch(c + r * ldc + (Nr - 1), /*rw=*/1, /*locality=*/3);
  }
  for (std::size_t r0 = 0; r0 < TileRows; r0 += Mr) {
    typename R::Vec acc[Mr][R::kVecs] = {};
    accumulate<T, Mr, Nr, TileRows>(a_tile + r0, b_tile, k, acc);
    T* crow = c + r0 * ldc;
    for (std::size_t r = 0; r < Mr; ++r)
      for (std::size_t v = 0; v < R::kVecs; ++v) {
        T* p = crow + r * ldc + v * R::kLanes;
        R::store(p, alpha * acc[r][v] + beta * R::load(p));
      }
  }
}

/// Masked path for edge tiles: runs the register blocks that hold live rows
/// over the zero-padded tile and writes only the live rows x cols corner —
/// the paper's "edge waste" is compute, never a wrong store (nor a load of
/// C outside the corner). Same per-element accumulation order as ukr_full.
template <class T, std::size_t Mr, std::size_t Nr, std::size_t TileRows>
void ukr_masked(const T* a_tile, const T* b_tile, std::size_t k, T alpha,
                T beta, T* c, std::size_t ldc, std::size_t rows,
                std::size_t cols) {
  static_assert(TileRows % Mr == 0, "Mr must divide the packed tile height");
  using R = Row<T, Nr>;
  for (std::size_t r0 = 0; r0 < rows; r0 += Mr) {
    typename R::Vec acc[Mr][R::kVecs] = {};
    accumulate<T, Mr, Nr, TileRows>(a_tile + r0, b_tile, k, acc);
    T* crow = c + r0 * ldc;
    for (std::size_t r = 0; r < Mr; ++r) {
      if (r0 + r >= rows) break;
      T* p = crow + r * ldc;
      for (std::size_t c2 = 0; c2 < cols; ++c2)
        p[c2] = alpha * acc[r][c2 / R::kLanes][c2 % R::kLanes] + beta * p[c2];
    }
  }
}
