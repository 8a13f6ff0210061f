// Scalar (baseline-ISA) kernel implementations — the semantic reference
// every SIMD level must reproduce bit-for-bit.
//
// The accumulation contract (see simd/dispatch.h): eight-lane reduction
// shape, fused multiply-add per partial product, fixed combine tree, serial
// fma tail; element-wise and GEMM accumulation chains use fma per element
// in a defined order. std::fma is the IEEE-754 fusedMultiplyAdd — correctly
// rounded on every platform — so this TU computes exactly what the vfmadd
// lanes of the AVX2/AVX-512 TUs compute, even when the baseline ISA has no
// fma instruction and libm provides it in software. That makes this level a
// *correctness* fallback (pre-2013 x86, exotic targets), not a fast path:
// on FMA-capable hardware the dispatcher never picks it unless forced, and
// the bench records its honest (slower) throughput per level.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "linalg/kernels.h"
#include "linalg/simd/dispatch.h"
#include "linalg/simd/philox_gaussian.h"

namespace sepriv::simd {

// --- Counter-based Gaussian: the reference (linalg/simd/philox_gaussian.h) --

namespace philox {

Block Philox4x32_10(Block ctr, uint64_t key) {
  uint32_t k0 = static_cast<uint32_t>(key);
  uint32_t k1 = static_cast<uint32_t>(key >> 32);
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0) {
      k0 += kW0;
      k1 += kW1;
    }
    const uint64_t p0 = uint64_t{kM0} * ctr.v[0];
    const uint64_t p1 = uint64_t{kM1} * ctr.v[2];
    ctr = {{static_cast<uint32_t>(p1 >> 32) ^ ctr.v[1] ^ k0,
            static_cast<uint32_t>(p1),
            static_cast<uint32_t>(p0 >> 32) ^ ctr.v[3] ^ k1,
            static_cast<uint32_t>(p0)}};
  }
  return ctr;
}

void GaussianPairFromBits(const Block& x, double* z_even, double* z_odd) {
  // u1 = (x0 + (x1 + 1/2)·2^-32)·2^-32: exact conversions, one rounding.
  const double u1 =
      std::fma(static_cast<double>(x.v[1]) + 0.5, 0x1p-32,
               static_cast<double>(x.v[0])) *
      0x1p-32;

  // ln u1: u1 = 2^e·m, m ∈ [√½, √2). Subtracting √½'s bit pattern moves
  // the split point to an exponent boundary; the biased exponent stays
  // positive for every u1 ≥ 2^-65.
  uint64_t bits = 0;
  std::memcpy(&bits, &u1, sizeof(bits));
  const uint64_t d = bits - kSqrtHalfBits;
  const uint64_t biased = (d + (uint64_t{0x3FF} << 52)) >> 52;  // e + 1023
  const uint64_t m_bits = (d & ((uint64_t{1} << 52) - 1)) + kSqrtHalfBits;
  double m = 0.0;
  std::memcpy(&m, &m_bits, sizeof(m));
  const double e = static_cast<double>(static_cast<int64_t>(biased) - 1023);
  const double s = (m - 1.0) / (m + 1.0);
  const double z = s * s;
  double q = kLogQ[0];
  for (int k = 1; k < 10; ++k) q = std::fma(q, z, kLogQ[k]);
  const double ln_m = std::fma(s, z * q, s + s);
  const double ln_u1 = std::fma(e, kLn2Hi, std::fma(e, kLn2Lo, ln_m));
  const double r = std::sqrt(-2.0 * ln_u1);

  // θ = 2π·u2 = (π/2)·(q + t): q = round(4·u2) mod 4, t ∈ [−1/2, 1/2).
  const uint64_t angle = (uint64_t{x.v[2]} << 20) | (x.v[3] >> 12);
  const uint64_t rounded = angle + (uint64_t{1} << 49);
  const uint64_t quadrant = (rounded >> 50) & 3;
  const int64_t rem =
      static_cast<int64_t>(rounded & ((uint64_t{1} << 50) - 1)) -
      (int64_t{1} << 49);
  const double t = static_cast<double>(rem) * 0x1p-50;
  const double w = t * t;
  double sp = kSin[0];
  double cp = kCos[0];
  for (int k = 1; k < 9; ++k) {
    sp = std::fma(sp, w, kSin[k]);
    cp = std::fma(cp, w, kCos[k]);
  }
  const double sin_t = t * sp;
  // Quadrant: odd q swaps sin and cos; cos θ is negative for q ∈ {1, 2},
  // sin θ for q ∈ {2, 3}.
  double cos_theta = (quadrant & 1) != 0 ? sin_t : cp;
  double sin_theta = (quadrant & 1) != 0 ? cp : sin_t;
  if (((quadrant + 1) & 2) != 0) cos_theta = -cos_theta;
  if ((quadrant & 2) != 0) sin_theta = -sin_theta;
  *z_even = r * cos_theta;
  *z_odd = r * sin_theta;
}

}  // namespace philox

namespace {

void GaussianAccumulateScalar(uint64_t key, uint64_t stream, uint64_t first,
                              double* dst, size_t n, double scale) {
  const uint64_t end = first + n;
  for (uint64_t i = first; i < end;) {
    const uint64_t pair = i >> 1;
    const philox::Block x = philox::Philox4x32_10(
        {{static_cast<uint32_t>(pair), static_cast<uint32_t>(pair >> 32),
          static_cast<uint32_t>(stream), static_cast<uint32_t>(stream >> 32)}},
        key);
    double z[2];
    philox::GaussianPairFromBits(x, &z[0], &z[1]);
    for (uint64_t odd = i & 1; odd < 2 && i < end; ++odd, ++i) {
      dst[i - first] = std::fma(scale, z[odd], dst[i - first]);
    }
  }
}

double DotScalar(const double* a, const double* b, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  double acc4 = 0.0, acc5 = 0.0, acc6 = 0.0, acc7 = 0.0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = std::fma(a[i], b[i], acc0);
    acc1 = std::fma(a[i + 1], b[i + 1], acc1);
    acc2 = std::fma(a[i + 2], b[i + 2], acc2);
    acc3 = std::fma(a[i + 3], b[i + 3], acc3);
    acc4 = std::fma(a[i + 4], b[i + 4], acc4);
    acc5 = std::fma(a[i + 5], b[i + 5], acc5);
    acc6 = std::fma(a[i + 6], b[i + 6], acc6);
    acc7 = std::fma(a[i + 7], b[i + 7], acc7);
  }
  double tail = 0.0;
  for (; i < n; ++i) tail = std::fma(a[i], b[i], tail);
  const double l0 = acc0 + acc4;
  const double l1 = acc1 + acc5;
  const double l2 = acc2 + acc6;
  const double l3 = acc3 + acc7;
  return ((l0 + l2) + (l1 + l3)) + tail;
}

double SquaredNormScalar(const double* a, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  double acc4 = 0.0, acc5 = 0.0, acc6 = 0.0, acc7 = 0.0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = std::fma(a[i], a[i], acc0);
    acc1 = std::fma(a[i + 1], a[i + 1], acc1);
    acc2 = std::fma(a[i + 2], a[i + 2], acc2);
    acc3 = std::fma(a[i + 3], a[i + 3], acc3);
    acc4 = std::fma(a[i + 4], a[i + 4], acc4);
    acc5 = std::fma(a[i + 5], a[i + 5], acc5);
    acc6 = std::fma(a[i + 6], a[i + 6], acc6);
    acc7 = std::fma(a[i + 7], a[i + 7], acc7);
  }
  double tail = 0.0;
  for (; i < n; ++i) tail = std::fma(a[i], a[i], tail);
  const double l0 = acc0 + acc4;
  const double l1 = acc1 + acc5;
  const double l2 = acc2 + acc6;
  const double l3 = acc3 + acc7;
  return ((l0 + l2) + (l1 + l3)) + tail;
}

double SquaredDistanceScalar(const double* a, const double* b, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  double acc4 = 0.0, acc5 = 0.0, acc6 = 0.0, acc7 = 0.0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    const double d4 = a[i + 4] - b[i + 4];
    const double d5 = a[i + 5] - b[i + 5];
    const double d6 = a[i + 6] - b[i + 6];
    const double d7 = a[i + 7] - b[i + 7];
    acc0 = std::fma(d0, d0, acc0);
    acc1 = std::fma(d1, d1, acc1);
    acc2 = std::fma(d2, d2, acc2);
    acc3 = std::fma(d3, d3, acc3);
    acc4 = std::fma(d4, d4, acc4);
    acc5 = std::fma(d5, d5, acc5);
    acc6 = std::fma(d6, d6, acc6);
    acc7 = std::fma(d7, d7, acc7);
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    tail = std::fma(d, d, tail);
  }
  const double l0 = acc0 + acc4;
  const double l1 = acc1 + acc5;
  const double l2 = acc2 + acc6;
  const double l3 = acc3 + acc7;
  return ((l0 + l2) + (l1 + l3)) + tail;
}

void AxpyScalar(double alpha, const double* SEPRIV_SIMD_RESTRICT x,
                double* SEPRIV_SIMD_RESTRICT y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

void ScaleScalar(double alpha, double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

double SgnsAccumulateScalar(const double* vi, const double* vn, size_t dim,
                            double weight, double indicator,
                            double* center_grad, double* ctx_row) {
  const double x = DotScalar(vi, vn, dim);
  const double coeff = weight * (kernels::Sigmoid(x) - indicator);
  for (size_t d = 0; d < dim; ++d) {
    center_grad[d] = std::fma(coeff, vn[d], center_grad[d]);
    ctx_row[d] = coeff * vi[d];
  }
  return x;
}

// One (i0..i1, j0..j1) output tile of C = A * B, depth blocks ascending,
// 2-row x 4-depth register block, every per-element chain an ascending-k
// fma sequence. This loop *structure* is what the vector tiles widen; the
// per-element arithmetic is identical there.
void GemmTileScalar(const double* a, const double* b, double* c, size_t k,
                    size_t n, size_t i0, size_t i1, size_t j0, size_t j1) {
  const size_t width = j1 - j0;
  for (size_t i = i0; i < i1; ++i) {
    double* crow = c + i * n + j0;
    for (size_t j = 0; j < width; ++j) crow[j] = 0.0;
  }
  for (size_t k0 = 0; k0 < k; k0 += kGemmTileDepth) {
    const size_t k1 = k0 + kGemmTileDepth < k ? k0 + kGemmTileDepth : k;
    size_t i = i0;
    for (; i + 2 <= i1; i += 2) {
      const double* arow0 = a + i * k;
      const double* arow1 = arow0 + k;
      double* crow0 = c + i * n + j0;
      double* crow1 = crow0 + n;
      size_t kk = k0;
      for (; kk + 4 <= k1; kk += 4) {
        const double a00 = arow0[kk], a01 = arow0[kk + 1];
        const double a02 = arow0[kk + 2], a03 = arow0[kk + 3];
        const double a10 = arow1[kk], a11 = arow1[kk + 1];
        const double a12 = arow1[kk + 2], a13 = arow1[kk + 3];
        const double* b0 = b + kk * n + j0;
        const double* b1 = b0 + n;
        const double* b2 = b1 + n;
        const double* b3 = b2 + n;
        for (size_t j = 0; j < width; ++j) {
          const double bv0 = b0[j], bv1 = b1[j], bv2 = b2[j], bv3 = b3[j];
          double t0 = crow0[j];
          t0 = std::fma(a00, bv0, t0);
          t0 = std::fma(a01, bv1, t0);
          t0 = std::fma(a02, bv2, t0);
          t0 = std::fma(a03, bv3, t0);
          crow0[j] = t0;
          double t1 = crow1[j];
          t1 = std::fma(a10, bv0, t1);
          t1 = std::fma(a11, bv1, t1);
          t1 = std::fma(a12, bv2, t1);
          t1 = std::fma(a13, bv3, t1);
          crow1[j] = t1;
        }
      }
      for (; kk < k1; ++kk) {
        AxpyScalar(arow0[kk], b + kk * n + j0, crow0, width);
        AxpyScalar(arow1[kk], b + kk * n + j0, crow1, width);
      }
    }
    for (; i < i1; ++i) {
      const double* arow = a + i * k;
      double* crow = c + i * n + j0;
      size_t kk = k0;
      for (; kk + 4 <= k1; kk += 4) {
        const double a0 = arow[kk], a1 = arow[kk + 1];
        const double a2 = arow[kk + 2], a3 = arow[kk + 3];
        const double* b0 = b + kk * n + j0;
        const double* b1 = b0 + n;
        const double* b2 = b1 + n;
        const double* b3 = b2 + n;
        for (size_t j = 0; j < width; ++j) {
          double t = crow[j];
          t = std::fma(a0, b0[j], t);
          t = std::fma(a1, b1[j], t);
          t = std::fma(a2, b2[j], t);
          t = std::fma(a3, b3[j], t);
          crow[j] = t;
        }
      }
      for (; kk < k1; ++kk) {
        AxpyScalar(arow[kk], b + kk * n + j0, crow, width);
      }
    }
  }
}

// One output tile of C = A * B^T: every element is a contract-shape dot.
void GemmNTTileScalar(const double* a, const double* b, double* c, size_t k,
                      size_t n, size_t i0, size_t i1, size_t j0, size_t j1) {
  for (size_t i = i0; i < i1; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * n;
    for (size_t j = j0; j < j1; ++j) {
      crow[j] = DotScalar(arow, b + j * k, k);
    }
  }
}

const KernelTable kScalarTable = {
    Level::kScalar,
    "scalar",
    &DotScalar,
    &SquaredNormScalar,
    &SquaredDistanceScalar,
    &AxpyScalar,
    &ScaleScalar,
    &SgnsAccumulateScalar,
    &GemmTileScalar,
    &GemmNTTileScalar,
    &GaussianAccumulateScalar,
};

}  // namespace

const KernelTable* ScalarKernels() { return &kScalarTable; }

}  // namespace sepriv::simd
