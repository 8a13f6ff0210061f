// The function-pointer dispatch table behind linalg/kernels.h.
//
// Each dispatch level (scalar / AVX2+FMA / AVX-512F) implements the same
// kernel set in its own translation unit, compiled with per-file ISA flags;
// the table below is the only seam between them and the portable wrappers
// in kernels.h. The accumulation-order contract that keeps every level
// bit-identical:
//
//   * Reductions (dot, squared norm, squared distance): EIGHT independent
//     accumulators striding the vector in lanes of eight; partial products
//     enter their accumulator with a FUSED multiply-add (std::fma scalar,
//     vfmadd vector — one rounding, IEEE-defined, identical everywhere);
//     lanes combine as l_j = acc_j + acc_{j+4} (j = 0..3), result =
//     ((l0 + l2) + (l1 + l3)) + serial fma tail. Eight lanes are one
//     512-bit accumulator, two 256-bit accumulators, or eight scalars —
//     the same partial sums in the same order at every level.
//   * Element-wise kernels (axpy, scale) and the fused SGNS update: each
//     output element is an independent expression (fma for the
//     accumulating forms), so any vector width yields identical bits.
//   * GEMM tiles: every C(i, j) accumulates its products in ascending-k
//     order via fma, zero-initialised per tile; the register/vector
//     blocking only reorders independent elements, never the per-element
//     chain. The cache-blocking driver (tile geometry, thread fan-out)
//     stays in kernels.cc and is shared by all levels.
//   * Counter-based Gaussian noise: each draw is a pure function of (key,
//     stream, index) built only from exact IEEE operations and single fmas
//     (linalg/simd/philox_gaussian.h), so a level computes one Philox block
//     and one Box–Muller pair per lane and matches the scalar definition
//     for every draw, whatever its width, the start index, or the length.
//
// The scalar implementation is the semantic reference: a SIMD level is
// correct iff it reproduces the scalar level bit-for-bit (enforced by
// tests/kernels_test.cc across every compiled-in level).

#ifndef SEPRIVGEMB_LINALG_SIMD_DISPATCH_H_
#define SEPRIVGEMB_LINALG_SIMD_DISPATCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "linalg/simd/cpu_features.h"

// The element-wise kernels promise non-overlapping source/destination (see
// kernels.h); the hint lets each level's compiler keep the stores out of the
// load stream without emitting runtime overlap checks.
#if defined(__GNUC__) || defined(__clang__)
#define SEPRIV_SIMD_RESTRICT __restrict__
#else
#define SEPRIV_SIMD_RESTRICT
#endif

namespace sepriv::simd {

/// Depth of one GEMM k-block. Part of the accumulation contract: the driver
/// in kernels.cc and every level's tile kernel must walk depth blocks of
/// exactly this size in ascending order, or tiles of different levels would
/// accumulate in different orders.
inline constexpr size_t kGemmTileDepth = 128;

/// One dispatch level's kernel implementations. All pointers are non-null
/// in a published table.
struct KernelTable {
  Level level = Level::kScalar;
  const char* name = "scalar";

  double (*dot)(const double* a, const double* b, size_t n) = nullptr;
  double (*squared_norm)(const double* a, size_t n) = nullptr;
  double (*squared_distance)(const double* a, const double* b,
                             size_t n) = nullptr;

  void (*axpy)(double alpha, const double* x, double* y, size_t n) = nullptr;
  void (*scale)(double alpha, double* x, size_t n) = nullptr;

  double (*sgns_accumulate)(const double* vi, const double* vn, size_t dim,
                            double weight, double indicator,
                            double* center_grad, double* ctx_row) = nullptr;

  /// One (i0..i1, j0..j1) output tile of C = A * B: zero-initialises the
  /// tile, then accumulates depth blocks in ascending order (the contract
  /// above). Geometry comes from the shared driver in kernels.cc.
  void (*gemm_tile)(const double* a, const double* b, double* c, size_t k,
                    size_t n, size_t i0, size_t i1, size_t j0,
                    size_t j1) = nullptr;

  /// One output tile of C = A * B^T (B stored n x k): each element is a
  /// shared-shape dot over the depth axis.
  void (*gemm_nt_tile)(const double* a, const double* b, double* c, size_t k,
                       size_t n, size_t i0, size_t i1, size_t j0,
                       size_t j1) = nullptr;

  /// dst[t] = fma(scale, Z(key, stream, first + t), dst[t]) for t < n.
  void (*gaussian_accumulate)(uint64_t key, uint64_t stream, uint64_t first,
                              double* dst, size_t n, double scale) = nullptr;
};

/// Per-level tables. The scalar table always exists; the AVX tables are
/// nullptr when their TU was compiled without the ISA (non-x86 target or
/// unsupported compiler flags) — the dispatcher then never offers them.
const KernelTable* ScalarKernels();
const KernelTable* Avx2Kernels();
const KernelTable* Avx512Kernels();

namespace internal {

// Published active table; null until first resolution. kernels.h wrappers
// read this on every call — a single relaxed-ish atomic load.
extern std::atomic<const KernelTable*> g_active_table;

// Slow path: resolves SetLevel override / SEPRIV_SIMD / CPUID, publishes,
// and returns the table. Thread-safe and idempotent.
const KernelTable& ResolveActiveTable();

}  // namespace internal

/// The table every kernels.h call dispatches through.
inline const KernelTable& ActiveKernels() {
  const KernelTable* t =
      internal::g_active_table.load(std::memory_order_acquire);
  return t != nullptr ? *t : internal::ResolveActiveTable();
}

}  // namespace sepriv::simd

#endif  // SEPRIVGEMB_LINALG_SIMD_DISPATCH_H_
