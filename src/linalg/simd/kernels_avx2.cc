// AVX2+FMA kernel implementations. This TU is compiled with -mavx2 -mfma
// (see src/CMakeLists.txt) and must therefore contain no code reachable on
// baseline hardware except through the dispatch table, which only offers it
// when CPUID reports avx2+fma.
//
// Bit-identity with the scalar reference (simd/dispatch.h contract): the
// eight scalar accumulators become two __m256d registers — lanes 0..3 and
// 4..7 — fed by _mm256_fmadd_pd (the same correctly-rounded fusedMultiplyAdd
// as std::fma); the combine l_j = acc_j + acc_{j+4} is one 256-bit add, the
// final ((l0+l2)+(l1+l3)) a 128-bit fold. Element-wise kernels and GEMM
// tiles vectorize across *independent* output elements only, so width never
// touches any per-element chain.

#include "linalg/simd/dispatch.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "linalg/kernels.h"
#include "linalg/simd/philox_gaussian.h"

namespace sepriv::simd {
namespace {

// ((l0 + l2) + (l1 + l3)) for l = lanes of a __m256d — the contract's
// combine tree applied to the lane sums.
inline double Combine4(__m256d l) {
  const __m128d lo = _mm256_castpd256_pd128(l);     // l0, l1
  const __m128d hi = _mm256_extractf128_pd(l, 1);   // l2, l3
  const __m128d s = _mm_add_pd(lo, hi);             // l0+l2, l1+l3
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

double DotAvx2(const double* a, const double* b, size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();  // scalar acc0..acc3
  __m256d acc_hi = _mm256_setzero_pd();  // scalar acc4..acc7
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc_lo = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                             acc_lo);
    acc_hi = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                             _mm256_loadu_pd(b + i + 4), acc_hi);
  }
  double tail = 0.0;
  for (; i < n; ++i) tail = std::fma(a[i], b[i], tail);
  return Combine4(_mm256_add_pd(acc_lo, acc_hi)) + tail;
}

double SquaredNormAvx2(const double* a, size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d v_lo = _mm256_loadu_pd(a + i);
    const __m256d v_hi = _mm256_loadu_pd(a + i + 4);
    acc_lo = _mm256_fmadd_pd(v_lo, v_lo, acc_lo);
    acc_hi = _mm256_fmadd_pd(v_hi, v_hi, acc_hi);
  }
  double tail = 0.0;
  for (; i < n; ++i) tail = std::fma(a[i], a[i], tail);
  return Combine4(_mm256_add_pd(acc_lo, acc_hi)) + tail;
}

double SquaredDistanceAvx2(const double* a, const double* b, size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d_lo =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d d_hi =
        _mm256_sub_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4));
    acc_lo = _mm256_fmadd_pd(d_lo, d_lo, acc_lo);
    acc_hi = _mm256_fmadd_pd(d_hi, d_hi, acc_hi);
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    tail = std::fma(d, d, tail);
  }
  return Combine4(_mm256_add_pd(acc_lo, acc_hi)) + tail;
}

void AxpyAvx2(double alpha, const double* SEPRIV_SIMD_RESTRICT x,
              double* SEPRIV_SIMD_RESTRICT y, size_t n) {
  const __m256d av = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(
        y + i,
        _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
    _mm256_storeu_pd(y + i + 4,
                     _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i + 4),
                                     _mm256_loadu_pd(y + i + 4)));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i,
        _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

void ScaleAvx2(double alpha, double* x, size_t n) {
  const __m256d av = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(av, _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

double SgnsAccumulateAvx2(const double* vi, const double* vn, size_t dim,
                          double weight, double indicator, double* center_grad,
                          double* ctx_row) {
  const double x = DotAvx2(vi, vn, dim);
  const double coeff = weight * (kernels::Sigmoid(x) - indicator);
  const __m256d cv = _mm256_set1_pd(coeff);
  size_t d = 0;
  for (; d + 4 <= dim; d += 4) {
    const __m256d vi_v = _mm256_loadu_pd(vi + d);
    const __m256d vn_v = _mm256_loadu_pd(vn + d);
    _mm256_storeu_pd(
        center_grad + d,
        _mm256_fmadd_pd(cv, vn_v, _mm256_loadu_pd(center_grad + d)));
    _mm256_storeu_pd(ctx_row + d, _mm256_mul_pd(cv, vi_v));
  }
  for (; d < dim; ++d) {
    center_grad[d] = std::fma(coeff, vn[d], center_grad[d]);
    ctx_row[d] = coeff * vi[d];
  }
  return x;
}

// The scalar tile's 2-row x 4-depth register block widened across the
// column axis to 2x __m256d (8 columns) per row. Each C(i, j) still
// accumulates its four depth products in ascending-k fma order — columns
// are independent, so the vector width changes no bits.
void GemmTileAvx2(const double* a, const double* b, double* c, size_t k,
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
        const __m256d a00 = _mm256_set1_pd(arow0[kk]);
        const __m256d a01 = _mm256_set1_pd(arow0[kk + 1]);
        const __m256d a02 = _mm256_set1_pd(arow0[kk + 2]);
        const __m256d a03 = _mm256_set1_pd(arow0[kk + 3]);
        const __m256d a10 = _mm256_set1_pd(arow1[kk]);
        const __m256d a11 = _mm256_set1_pd(arow1[kk + 1]);
        const __m256d a12 = _mm256_set1_pd(arow1[kk + 2]);
        const __m256d a13 = _mm256_set1_pd(arow1[kk + 3]);
        const double* b0 = b + kk * n + j0;
        const double* b1 = b0 + n;
        const double* b2 = b1 + n;
        const double* b3 = b2 + n;
        size_t j = 0;
        for (; j + 8 <= width; j += 8) {
          const __m256d bv0a = _mm256_loadu_pd(b0 + j);
          const __m256d bv1a = _mm256_loadu_pd(b1 + j);
          const __m256d bv2a = _mm256_loadu_pd(b2 + j);
          const __m256d bv3a = _mm256_loadu_pd(b3 + j);
          const __m256d bv0b = _mm256_loadu_pd(b0 + j + 4);
          const __m256d bv1b = _mm256_loadu_pd(b1 + j + 4);
          const __m256d bv2b = _mm256_loadu_pd(b2 + j + 4);
          const __m256d bv3b = _mm256_loadu_pd(b3 + j + 4);
          __m256d t0a = _mm256_loadu_pd(crow0 + j);
          __m256d t0b = _mm256_loadu_pd(crow0 + j + 4);
          t0a = _mm256_fmadd_pd(a00, bv0a, t0a);
          t0b = _mm256_fmadd_pd(a00, bv0b, t0b);
          t0a = _mm256_fmadd_pd(a01, bv1a, t0a);
          t0b = _mm256_fmadd_pd(a01, bv1b, t0b);
          t0a = _mm256_fmadd_pd(a02, bv2a, t0a);
          t0b = _mm256_fmadd_pd(a02, bv2b, t0b);
          t0a = _mm256_fmadd_pd(a03, bv3a, t0a);
          t0b = _mm256_fmadd_pd(a03, bv3b, t0b);
          _mm256_storeu_pd(crow0 + j, t0a);
          _mm256_storeu_pd(crow0 + j + 4, t0b);
          __m256d t1a = _mm256_loadu_pd(crow1 + j);
          __m256d t1b = _mm256_loadu_pd(crow1 + j + 4);
          t1a = _mm256_fmadd_pd(a10, bv0a, t1a);
          t1b = _mm256_fmadd_pd(a10, bv0b, t1b);
          t1a = _mm256_fmadd_pd(a11, bv1a, t1a);
          t1b = _mm256_fmadd_pd(a11, bv1b, t1b);
          t1a = _mm256_fmadd_pd(a12, bv2a, t1a);
          t1b = _mm256_fmadd_pd(a12, bv2b, t1b);
          t1a = _mm256_fmadd_pd(a13, bv3a, t1a);
          t1b = _mm256_fmadd_pd(a13, bv3b, t1b);
          _mm256_storeu_pd(crow1 + j, t1a);
          _mm256_storeu_pd(crow1 + j + 4, t1b);
        }
        for (; j < width; ++j) {
          const double bv0 = b0[j], bv1 = b1[j], bv2 = b2[j], bv3 = b3[j];
          double t0 = crow0[j];
          t0 = std::fma(arow0[kk], bv0, t0);
          t0 = std::fma(arow0[kk + 1], bv1, t0);
          t0 = std::fma(arow0[kk + 2], bv2, t0);
          t0 = std::fma(arow0[kk + 3], bv3, t0);
          crow0[j] = t0;
          double t1 = crow1[j];
          t1 = std::fma(arow1[kk], bv0, t1);
          t1 = std::fma(arow1[kk + 1], bv1, t1);
          t1 = std::fma(arow1[kk + 2], bv2, t1);
          t1 = std::fma(arow1[kk + 3], bv3, t1);
          crow1[j] = t1;
        }
      }
      for (; kk < k1; ++kk) {
        AxpyAvx2(arow0[kk], b + kk * n + j0, crow0, width);
        AxpyAvx2(arow1[kk], b + kk * n + j0, crow1, width);
      }
    }
    for (; i < i1; ++i) {
      const double* arow = a + i * k;
      double* crow = c + i * n + j0;
      size_t kk = k0;
      for (; kk + 4 <= k1; kk += 4) {
        const __m256d a0 = _mm256_set1_pd(arow[kk]);
        const __m256d a1 = _mm256_set1_pd(arow[kk + 1]);
        const __m256d a2 = _mm256_set1_pd(arow[kk + 2]);
        const __m256d a3 = _mm256_set1_pd(arow[kk + 3]);
        const double* b0 = b + kk * n + j0;
        const double* b1 = b0 + n;
        const double* b2 = b1 + n;
        const double* b3 = b2 + n;
        size_t j = 0;
        for (; j + 4 <= width; j += 4) {
          __m256d t = _mm256_loadu_pd(crow + j);
          t = _mm256_fmadd_pd(a0, _mm256_loadu_pd(b0 + j), t);
          t = _mm256_fmadd_pd(a1, _mm256_loadu_pd(b1 + j), t);
          t = _mm256_fmadd_pd(a2, _mm256_loadu_pd(b2 + j), t);
          t = _mm256_fmadd_pd(a3, _mm256_loadu_pd(b3 + j), t);
          _mm256_storeu_pd(crow + j, t);
        }
        for (; j < width; ++j) {
          double t = crow[j];
          t = std::fma(arow[kk], b0[j], t);
          t = std::fma(arow[kk + 1], b1[j], t);
          t = std::fma(arow[kk + 2], b2[j], t);
          t = std::fma(arow[kk + 3], b3[j], t);
          crow[j] = t;
        }
      }
      for (; kk < k1; ++kk) {
        AxpyAvx2(arow[kk], b + kk * n + j0, crow, width);
      }
    }
  }
}

void GemmNTTileAvx2(const double* a, const double* b, double* c, size_t k,
                    size_t n, size_t i0, size_t i1, size_t j0, size_t j1) {
  for (size_t i = i0; i < i1; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * n;
    for (size_t j = j0; j < j1; ++j) {
      crow[j] = DotAvx2(arow, b + j * k, k);
    }
  }
}

// --- Counter-based Gaussian (linalg/simd/philox_gaussian.h) ----------------
//
// Four Philox blocks per register, one per 64-bit lane, each 32-bit word in
// the low half of its lane: _mm256_mul_epu32 reads only low halves, so high
// halves may hold garbage until the words are masked. Integer-to-double
// conversions use the 2^52 bias trick (exact for values below 2^52).

struct NoiseKey256 {
  __m256i k0[philox::kRounds];  // round keys, broadcast
  __m256i k1[philox::kRounds];
  __m256i s_lo;  // stream words
  __m256i s_hi;
};

NoiseKey256 MakeNoiseKey256(uint64_t key, uint64_t stream) {
  NoiseKey256 nk;
  uint32_t k0 = static_cast<uint32_t>(key);
  uint32_t k1 = static_cast<uint32_t>(key >> 32);
  for (int r = 0; r < philox::kRounds; ++r) {
    if (r > 0) {
      k0 += philox::kW0;
      k1 += philox::kW1;
    }
    nk.k0[r] = _mm256_set1_epi64x(k0);
    nk.k1[r] = _mm256_set1_epi64x(k1);
  }
  nk.s_lo = _mm256_set1_epi64x(static_cast<uint32_t>(stream));
  nk.s_hi = _mm256_set1_epi64x(static_cast<uint32_t>(stream >> 32));
  return nk;
}

// Exact double of each lane's value, which must be below 2^52.
inline __m256d ExactToDouble(__m256i v) {
  const __m256i bias = _mm256_set1_epi64x(0x4330000000000000LL);  // 2^52
  return _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(v, bias)),
                       _mm256_set1_pd(0x1p52));
}

inline __m256i Xor3(__m256i a, __m256i b, __m256i c) {
  return _mm256_xor_si256(_mm256_xor_si256(a, b), c);
}

// Draws 2j and 2j+1 of pairs j = j0 .. j0+4N-1: lane l of z_even[b] and
// z_odd[b] holds pair j0 + 4b + l. Each stage runs over N independent
// blocks before the next starts, so the core overlaps their dependency
// chains; every lane performs the same operations whatever N is.
template <int N>
inline void GaussianPairs(const NoiseKey256& nk, uint64_t j0,
                          __m256d (&z_even)[N], __m256d (&z_odd)[N]) {
  const __m256i lo32 = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i lane = _mm256_set_epi64x(3, 2, 1, 0);
  __m256i c0[N], c1[N], c2[N], c3[N];
  for (int b = 0; b < N; ++b) {
    const __m256i j = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<int64_t>(j0 + 4 * b)), lane);
    c0[b] = j;
    c1[b] = _mm256_srli_epi64(j, 32);
    c2[b] = nk.s_lo;
    c3[b] = nk.s_hi;
  }
  const __m256i m0 = _mm256_set1_epi64x(philox::kM0);
  const __m256i m1 = _mm256_set1_epi64x(philox::kM1);
  for (int r = 0; r < philox::kRounds; ++r) {
    for (int b = 0; b < N; ++b) {
      const __m256i p0 = _mm256_mul_epu32(c0[b], m0);
      const __m256i p1 = _mm256_mul_epu32(c2[b], m1);
      c0[b] = Xor3(_mm256_srli_epi64(p1, 32), c1[b], nk.k0[r]);
      c2[b] = Xor3(_mm256_srli_epi64(p0, 32), c3[b], nk.k1[r]);
      c1[b] = p1;
      c3[b] = p0;
    }
  }

  // u1 = (x0 + (x1 + 1/2)·2^-32)·2^-32.
  __m256d u1[N];
  for (int b = 0; b < N; ++b) {
    const __m256d x0 = ExactToDouble(_mm256_and_si256(c0[b], lo32));
    const __m256d x1 = ExactToDouble(_mm256_and_si256(c1[b], lo32));
    u1[b] = _mm256_mul_pd(
        _mm256_fmadd_pd(_mm256_add_pd(x1, _mm256_set1_pd(0.5)),
                        _mm256_set1_pd(0x1p-32), x0),
        _mm256_set1_pd(0x1p-32));
  }

  // ln u1 = e·ln 2 + ln m, m ∈ [√½, √2).
  const __m256i sqrt_half = _mm256_set1_epi64x(philox::kSqrtHalfBits);
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d e[N], s[N], z[N], q[N];
  for (int b = 0; b < N; ++b) {
    const __m256i d = _mm256_sub_epi64(_mm256_castpd_si256(u1[b]), sqrt_half);
    const __m256i biased = _mm256_srli_epi64(
        _mm256_add_epi64(d, _mm256_set1_epi64x(0x3FF0000000000000LL)), 52);
    const __m256d m = _mm256_castsi256_pd(_mm256_add_epi64(
        _mm256_and_si256(d, _mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL)),
        sqrt_half));
    e[b] = _mm256_sub_pd(ExactToDouble(biased), _mm256_set1_pd(1023.0));
    s[b] = _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
    z[b] = _mm256_mul_pd(s[b], s[b]);
    q[b] = _mm256_set1_pd(philox::kLogQ[0]);
  }
  for (int k = 1; k < 10; ++k) {
    const __m256d coeff = _mm256_set1_pd(philox::kLogQ[k]);
    for (int b = 0; b < N; ++b) q[b] = _mm256_fmadd_pd(q[b], z[b], coeff);
  }
  __m256d r[N];
  for (int b = 0; b < N; ++b) {
    const __m256d ln_m = _mm256_fmadd_pd(s[b], _mm256_mul_pd(z[b], q[b]),
                                         _mm256_add_pd(s[b], s[b]));
    const __m256d ln_u1 = _mm256_fmadd_pd(
        e[b], _mm256_set1_pd(philox::kLn2Hi),
        _mm256_fmadd_pd(e[b], _mm256_set1_pd(philox::kLn2Lo), ln_m));
    r[b] = _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), ln_u1));
  }

  // θ = (π/2)·(quadrant + t).
  __m256i quadrant[N];
  __m256d t[N], w[N], sp[N], cp[N];
  for (int b = 0; b < N; ++b) {
    const __m256i angle = _mm256_or_si256(
        _mm256_slli_epi64(_mm256_and_si256(c2[b], lo32), 20),
        _mm256_srli_epi64(_mm256_and_si256(c3[b], lo32), 12));
    const __m256i rounded =
        _mm256_add_epi64(angle, _mm256_set1_epi64x(int64_t{1} << 49));
    quadrant[b] = _mm256_and_si256(_mm256_srli_epi64(rounded, 50),
                                   _mm256_set1_epi64x(3));
    const __m256i rem_biased = _mm256_and_si256(  // t·2^50 + 2^49
        rounded, _mm256_set1_epi64x((int64_t{1} << 50) - 1));
    t[b] = _mm256_mul_pd(
        _mm256_sub_pd(ExactToDouble(rem_biased), _mm256_set1_pd(0x1p49)),
        _mm256_set1_pd(0x1p-50));
    w[b] = _mm256_mul_pd(t[b], t[b]);
    sp[b] = _mm256_set1_pd(philox::kSin[0]);
    cp[b] = _mm256_set1_pd(philox::kCos[0]);
  }
  for (int k = 1; k < 9; ++k) {
    const __m256d sin_coeff = _mm256_set1_pd(philox::kSin[k]);
    const __m256d cos_coeff = _mm256_set1_pd(philox::kCos[k]);
    for (int b = 0; b < N; ++b) {
      sp[b] = _mm256_fmadd_pd(sp[b], w[b], sin_coeff);
      cp[b] = _mm256_fmadd_pd(cp[b], w[b], cos_coeff);
    }
  }
  const __m256i two = _mm256_set1_epi64x(2);
  for (int b = 0; b < N; ++b) {
    const __m256d sin_t = _mm256_mul_pd(t[b], sp[b]);
    // blendv selects on the sign bit: bit 0 of the quadrant moved to bit 63.
    const __m256d odd =
        _mm256_castsi256_pd(_mm256_slli_epi64(quadrant[b], 63));
    const __m256d neg_cos = _mm256_castsi256_pd(_mm256_slli_epi64(
        _mm256_and_si256(
            _mm256_add_epi64(quadrant[b], _mm256_set1_epi64x(1)), two),
        62));
    const __m256d neg_sin = _mm256_castsi256_pd(
        _mm256_slli_epi64(_mm256_and_si256(quadrant[b], two), 62));
    const __m256d cos_theta =
        _mm256_xor_pd(_mm256_blendv_pd(cp[b], sin_t, odd), neg_cos);
    const __m256d sin_theta =
        _mm256_xor_pd(_mm256_blendv_pd(sin_t, cp[b], odd), neg_sin);
    z_even[b] = _mm256_mul_pd(r[b], cos_theta);
    z_odd[b] = _mm256_mul_pd(r[b], sin_theta);
  }
}

// The 8·N draws 2·j0 .. 2·j0+8N-1 in index order: lo[b] then hi[b] hold
// draws 2·j0+8b .. 2·j0+8b+7.
template <int N>
inline void GaussianDraws(const NoiseKey256& nk, uint64_t j0, __m256d (&lo)[N],
                          __m256d (&hi)[N]) {
  __m256d z_even[N], z_odd[N];
  GaussianPairs<N>(nk, j0, z_even, z_odd);
  for (int b = 0; b < N; ++b) {
    const __m256d a = _mm256_unpacklo_pd(z_even[b], z_odd[b]);  // e0 o0 e2 o2
    const __m256d c = _mm256_unpackhi_pd(z_even[b], z_odd[b]);  // e1 o1 e3 o3
    lo[b] = _mm256_permute2f128_pd(a, c, 0x20);                 // e0 o0 e1 o1
    hi[b] = _mm256_permute2f128_pd(a, c, 0x31);                 // e2 o2 e3 o3
  }
}

// Blocks per iteration of the main loop: 32 draws.
constexpr int kNoiseBlocks = 4;

void GaussianAccumulateAvx2(uint64_t key, uint64_t stream, uint64_t first,
                            double* dst, size_t n, double scale) {
  if (n == 0) return;
  const NoiseKey256 nk = MakeNoiseKey256(key, stream);
  const __m256d sv = _mm256_set1_pd(scale);
  const uint64_t end = first + n;
  uint64_t i = first;
  double* out = dst;
  alignas(32) double buf[8];
  __m256d lo[1], hi[1];
  if ((i & 1) != 0) {  // odd start: the sin half of pair i/2
    GaussianDraws<1>(nk, i >> 1, lo, hi);
    _mm256_store_pd(buf, lo[0]);
    *out = std::fma(scale, buf[1], *out);
    ++out;
    ++i;
  }
  for (; end - i >= 8 * kNoiseBlocks;
       i += 8 * kNoiseBlocks, out += 8 * kNoiseBlocks) {
    __m256d lon[kNoiseBlocks], hin[kNoiseBlocks];
    GaussianDraws<kNoiseBlocks>(nk, i >> 1, lon, hin);
    for (int b = 0; b < kNoiseBlocks; ++b) {
      double* o = out + 8 * b;
      _mm256_storeu_pd(o, _mm256_fmadd_pd(sv, lon[b], _mm256_loadu_pd(o)));
      _mm256_storeu_pd(o + 4,
                       _mm256_fmadd_pd(sv, hin[b], _mm256_loadu_pd(o + 4)));
    }
  }
  for (; end - i >= 8; i += 8, out += 8) {
    GaussianDraws<1>(nk, i >> 1, lo, hi);
    _mm256_storeu_pd(out, _mm256_fmadd_pd(sv, lo[0], _mm256_loadu_pd(out)));
    _mm256_storeu_pd(out + 4,
                     _mm256_fmadd_pd(sv, hi[0], _mm256_loadu_pd(out + 4)));
  }
  if (i < end) {
    GaussianDraws<1>(nk, i >> 1, lo, hi);
    _mm256_store_pd(buf, lo[0]);
    _mm256_store_pd(buf + 4, hi[0]);
    for (size_t t = 0; t < end - i; ++t) {
      out[t] = std::fma(scale, buf[t], out[t]);
    }
  }
}

const KernelTable kAvx2Table = {
    Level::kAvx2,
    "avx2",
    &DotAvx2,
    &SquaredNormAvx2,
    &SquaredDistanceAvx2,
    &AxpyAvx2,
    &ScaleAvx2,
    &SgnsAccumulateAvx2,
    &GemmTileAvx2,
    &GemmNTTileAvx2,
    &GaussianAccumulateAvx2,
};

}  // namespace

const KernelTable* Avx2Kernels() { return &kAvx2Table; }

}  // namespace sepriv::simd

#else  // !(__AVX2__ && __FMA__)

namespace sepriv::simd {

// Built without the required ISA flags (non-x86 target or unsupported
// compiler): the level does not exist and the dispatcher never offers it.
const KernelTable* Avx2Kernels() { return nullptr; }

}  // namespace sepriv::simd

#endif
