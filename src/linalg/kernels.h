// Linear-algebra kernels — the single accumulation shape for every FLOP in
// the library, behind a runtime CPU-dispatch table.
//
// Every dot product, squared norm, axpy, and GEMM in the codebase routes
// through this layer so that (a) each call lands on the best implementation
// the running CPU supports — portable scalar, AVX2+FMA, or AVX-512F, chosen
// once per process from CPUID (see linalg/simd/cpu_features.h; override with
// SEPRIV_SIMD=scalar|avx2|avx512) — and (b) the floating-point accumulation
// order is *identical everywhere*: the same inputs produce bit-identical
// results run-to-run, caller-to-caller, for every thread count, and for
// every dispatch level (the accumulation-order contract in simd/dispatch.h:
// eight fma accumulators, fixed combine tree, ascending-k GEMM chains).
// Callers must never re-implement these loops inline; that would fork the
// accumulation shape and break the determinism contract (see README
// "Performance").
//
// The wrappers here are one atomic load plus an indirect call; the loop
// bodies live in linalg/simd/kernels_{scalar,avx2,avx512}.cc. The
// bulk-Gaussian and blocked-GEMM drivers live in kernels.cc (they carry
// state: the shared linalg thread pool).

#ifndef SEPRIVGEMB_LINALG_KERNELS_H_
#define SEPRIVGEMB_LINALG_KERNELS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "linalg/simd/dispatch.h"

namespace sepriv {

class Rng;  // util/rng.h — only referenced by the bulk-Gaussian kernels

namespace kernels {

// ---------------------------------------------------------------------------
// Reduction kernels: eight fma accumulators striding the vector in lanes of
// eight, combined as l_j = acc_j + acc_{j+4}, ((l0+l2)+(l1+l3)) + fma tail —
// one 512-bit register, two 256-bit registers, or eight scalars, identically.
// ---------------------------------------------------------------------------

inline double Dot(const double* a, const double* b, size_t n) {
  return simd::ActiveKernels().dot(a, b, n);
}

inline double SquaredNorm(const double* a, size_t n) {
  return simd::ActiveKernels().squared_norm(a, n);
}

inline double SquaredDistance(const double* a, const double* b, size_t n) {
  return simd::ActiveKernels().squared_distance(a, b, n);
}

// ---------------------------------------------------------------------------
// Element-wise kernels. Each output element is one independent expression
// (fma for the accumulating form), so every dispatch level yields identical
// bits. x and y must not overlap (the implementations assume restrict).
// ---------------------------------------------------------------------------

/// y[i] = fma(alpha, x[i], y[i]).
inline void Axpy(double alpha, const double* x, double* y, size_t n) {
  simd::ActiveKernels().axpy(alpha, x, y, n);
}

/// x[i] *= alpha.
inline void Scale(double alpha, double* x, size_t n) {
  simd::ActiveKernels().scale(alpha, x, n);
}

// ---------------------------------------------------------------------------
// Fused SGNS hot path.
// ---------------------------------------------------------------------------

/// Classic logistic sigmoid, stable for large |x|. (Defined here, at the
/// bottom of the include graph, so the fused kernel below and
/// util/math_util.h's public Sigmoid share one implementation.)
inline double Sigmoid(double x) {
  if (x >= 0.0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

/// The per-(center, context) SGNS update fused into two passes over dim:
///   x     = vi · vn                      (contract-shape dot)
///   coeff = weight * (sigmoid(x) - indicator)
///   center_grad[d] = fma(coeff, vn[d], center_grad[d])   (Eq. 7)
///   ctx_row[d]     = coeff * vi[d]                       (Eq. 8)
/// Returns x so the caller can form the loss without re-scoring. The fused
/// second loop writes both gradient rows from one stream over vi/vn.
inline double SgnsAccumulate(const double* vi, const double* vn, size_t dim,
                             double weight, double indicator,
                             double* center_grad, double* ctx_row) {
  return simd::ActiveKernels().sgns_accumulate(vi, vn, dim, weight, indicator,
                                               center_grad, ctx_row);
}

// ---------------------------------------------------------------------------
// Counter-based Gaussian noise (dispatched).
//
// Z(key, stream, i) is standard normal draw i of a stream: one
// Philox4x32-10 block per pair of draws feeds Box–Muller with in-house
// log/sincos polynomials (the definition is in linalg/simd/philox_gaussian.h).
// A draw is a pure function of its coordinates — no generator state — so
// any split of a range over calls, threads or blocks yields the same
// values, and every dispatch level yields the same bits.
//
// Precision: tests/kernels_test.cc compares ~6.6·10^5 draws against
// long-double libm at the same (u1, u2), over every binade of u1 down to
// 2^-65 and a dense grid of u2. The largest error is 3.4 ulp of
// r·cos θ / r·sin θ, and the test fails above 4 ulp. u1 ≥ 2^-65 caps
// |Z| at sqrt(-2 ln 2^-65) ≈ 9.4926: the exact Box–Muller radius exceeds
// it with probability 2^-65 per pair, the tail mass the draws miss (README
// "Performance" turns it into a δ term).
// ---------------------------------------------------------------------------

/// dst[t] += scale · Z(key, stream, first + t) for t < n, as one fma per
/// element. first + n must not exceed 2^64.
inline void GaussianAccumulate(uint64_t key, uint64_t stream, uint64_t first,
                               double* dst, size_t n, double scale) {
  simd::ActiveKernels().gaussian_accumulate(key, stream, first, dst, n, scale);
}

// ---------------------------------------------------------------------------
// Bulk Gaussian generation (kernels.cc).
//
// Straight-line pairwise Box–Muller: each (u1, u2) pair yields both the cos
// and sin draw immediately, with no cached-second-value branch in the inner
// loop (the branch in Rng::Normal defeats pipelining when filling millions
// of entries). A pending cached value is drained first and an odd tail is
// produced via Rng::Normal (which caches its sin), so for EVERY length and
// engine entry state the fill emits exactly the sequence the scalar
// Rng::Normal loop produced and leaves the engine in the identical state —
// pre-existing noise streams and seeds are unchanged, unconditionally.
// (Not dispatched: the cost is in libm log/cos/sin, not vectorizable loops,
// and the draw sequence is part of the determinism contract.)
// ---------------------------------------------------------------------------

/// dst[0..n) = i.i.d. N(mean, stddev^2).
void FillGaussian(Rng& rng, double* dst, size_t n, double mean, double stddev);

/// dst[i] += N(0, stddev^2), i.i.d. per element.
void AccumulateGaussian(Rng& rng, double* dst, size_t n, double stddev);

// ---------------------------------------------------------------------------
// Cache-blocked, thread-pool-parallel GEMM (kernels.cc).
//
// The output is partitioned into tiles; each tile is owned by exactly one
// task and accumulated with a fixed in-tile loop order (depth blocks in
// ascending order, then row/depth/column), so the result is bit-identical
// for every thread count — the same discipline as BatchGradientEngine. The
// driver (tile geometry, thread fan-out) is shared by all dispatch levels;
// only the in-tile micro-kernel dispatches. All buffers are dense row-major;
// C must not alias A or B and is overwritten.
// ---------------------------------------------------------------------------

/// C (m x n) = A (m x k) * B (k x n).
void Gemm(const double* a, const double* b, double* c, size_t m, size_t k,
          size_t n);

/// C (m x n) = A^T * B, with A stored as (k x m).
void GemmTN(const double* a, const double* b, double* c, size_t k, size_t m,
            size_t n);

/// C (m x n) = A * B^T, with A (m x k) and B (n x k).
void GemmNT(const double* a, const double* b, double* c, size_t m, size_t k,
            size_t n);

// ---------------------------------------------------------------------------
// The shared linalg thread pool.
// ---------------------------------------------------------------------------

/// Thread count the parallel kernels currently resolve to (>= 1).
size_t LinalgThreads();

/// Sets the pool size for subsequent parallel kernels: 0 restores the auto
/// policy (SEPRIV_NUM_THREADS env, else hardware). Rebuilds the pool lazily;
/// results never depend on this knob (only wall-clock does). Not safe to
/// call concurrently with in-flight parallel kernels.
void SetLinalgThreads(size_t n);

/// Runs task(t) for every t in [0, n_tasks) on the shared pool, one task per
/// index. Falls back to a serial loop when the pool is busy, when called
/// from inside another parallel kernel (re-entrancy), or when n_tasks == 1 —
/// all with identical results, since each task owns its output exclusively.
/// Exposed for row-sharded callers outside this file (NormalizedAdjacency).
void ParallelTasks(size_t n_tasks, const std::function<void(size_t)>& task);

}  // namespace kernels
}  // namespace sepriv

#endif  // SEPRIVGEMB_LINALG_KERNELS_H_
