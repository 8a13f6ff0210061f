// AVX-512F kernel implementations. Compiled with -mavx512f (plus avx2/fma
// for the 256-bit combine and tails); reachable only through the dispatch
// table when CPUID reports avx512f.
//
// Bit-identity with the scalar reference (simd/dispatch.h contract): the
// eight scalar accumulators are ONE __m512d — lane j holds acc_j — fed by
// _mm512_fmadd_pd; the combine l_j = acc_j + acc_{j+4} is the 256-bit add
// of the register's two halves, then the same 128-bit fold as AVX2. GEMM
// tiles widen the column axis to 2x __m512d (16 columns) per row; depth
// chains stay ascending-k fma per element.

#include "linalg/simd/dispatch.h"

#if defined(__AVX512F__)

// gcc 12 (PR 105593) flags the _mm512_undefined_pd() self-initialisation
// inside the AVX-512 headers under -Werror whenever such an intrinsic is
// inlined into caller code; TU-wide suppression is the upstream-recommended
// workaround until 12.3.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "linalg/kernels.h"
#include "linalg/simd/philox_gaussian.h"

namespace sepriv::simd {
namespace {

// l_j = acc_j + acc_{j+4} (halves add), then ((l0+l2)+(l1+l3)).
inline double Combine8(__m512d acc) {
  const __m256d lo = _mm512_castpd512_pd256(acc);  // acc0..acc3
  // Upper half via shuffle+cast: _mm512_extractf64x4_pd trips gcc 12's
  // -Wuninitialized on the _mm256_undefined_pd() inside the header.
  const __m256d hi = _mm512_castpd512_pd256(
      _mm512_shuffle_f64x2(acc, acc, 0xEE));  // acc4..acc7
  const __m256d l = _mm256_add_pd(lo, hi);             // l0..l3
  const __m128d s = _mm_add_pd(_mm256_castpd256_pd128(l),
                               _mm256_extractf128_pd(l, 1));  // l0+l2, l1+l3
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

double DotAvx512(const double* a, const double* b, size_t n) {
  __m512d acc = _mm512_setzero_pd();  // lane j = scalar acc_j
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i), acc);
  }
  double tail = 0.0;
  for (; i < n; ++i) tail = std::fma(a[i], b[i], tail);
  return Combine8(acc) + tail;
}

double SquaredNormAvx512(const double* a, size_t n) {
  __m512d acc = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d v = _mm512_loadu_pd(a + i);
    acc = _mm512_fmadd_pd(v, v, acc);
  }
  double tail = 0.0;
  for (; i < n; ++i) tail = std::fma(a[i], a[i], tail);
  return Combine8(acc) + tail;
}

double SquaredDistanceAvx512(const double* a, const double* b, size_t n) {
  __m512d acc = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d d =
        _mm512_sub_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i));
    acc = _mm512_fmadd_pd(d, d, acc);
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    tail = std::fma(d, d, tail);
  }
  return Combine8(acc) + tail;
}

void AxpyAvx512(double alpha, const double* SEPRIV_SIMD_RESTRICT x,
                double* SEPRIV_SIMD_RESTRICT y, size_t n) {
  const __m512d av = _mm512_set1_pd(alpha);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_pd(
        y + i,
        _mm512_fmadd_pd(av, _mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i)));
    _mm512_storeu_pd(y + i + 8,
                     _mm512_fmadd_pd(av, _mm512_loadu_pd(x + i + 8),
                                     _mm512_loadu_pd(y + i + 8)));
  }
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        y + i,
        _mm512_fmadd_pd(av, _mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

void ScaleAvx512(double alpha, double* x, size_t n) {
  const __m512d av = _mm512_set1_pd(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(x + i, _mm512_mul_pd(av, _mm512_loadu_pd(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

double SgnsAccumulateAvx512(const double* vi, const double* vn, size_t dim,
                            double weight, double indicator,
                            double* center_grad, double* ctx_row) {
  const double x = DotAvx512(vi, vn, dim);
  const double coeff = weight * (kernels::Sigmoid(x) - indicator);
  const __m512d cv = _mm512_set1_pd(coeff);
  size_t d = 0;
  for (; d + 8 <= dim; d += 8) {
    const __m512d vi_v = _mm512_loadu_pd(vi + d);
    const __m512d vn_v = _mm512_loadu_pd(vn + d);
    _mm512_storeu_pd(
        center_grad + d,
        _mm512_fmadd_pd(cv, vn_v, _mm512_loadu_pd(center_grad + d)));
    _mm512_storeu_pd(ctx_row + d, _mm512_mul_pd(cv, vi_v));
  }
  for (; d < dim; ++d) {
    center_grad[d] = std::fma(coeff, vn[d], center_grad[d]);
    ctx_row[d] = coeff * vi[d];
  }
  return x;
}

// 2-row x 2x __m512d (16-column) register block; ascending-k fma chains.
void GemmTileAvx512(const double* a, const double* b, double* c, size_t k,
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
        const __m512d a00 = _mm512_set1_pd(arow0[kk]);
        const __m512d a01 = _mm512_set1_pd(arow0[kk + 1]);
        const __m512d a02 = _mm512_set1_pd(arow0[kk + 2]);
        const __m512d a03 = _mm512_set1_pd(arow0[kk + 3]);
        const __m512d a10 = _mm512_set1_pd(arow1[kk]);
        const __m512d a11 = _mm512_set1_pd(arow1[kk + 1]);
        const __m512d a12 = _mm512_set1_pd(arow1[kk + 2]);
        const __m512d a13 = _mm512_set1_pd(arow1[kk + 3]);
        const double* b0 = b + kk * n + j0;
        const double* b1 = b0 + n;
        const double* b2 = b1 + n;
        const double* b3 = b2 + n;
        size_t j = 0;
        for (; j + 16 <= width; j += 16) {
          const __m512d bv0a = _mm512_loadu_pd(b0 + j);
          const __m512d bv1a = _mm512_loadu_pd(b1 + j);
          const __m512d bv2a = _mm512_loadu_pd(b2 + j);
          const __m512d bv3a = _mm512_loadu_pd(b3 + j);
          const __m512d bv0b = _mm512_loadu_pd(b0 + j + 8);
          const __m512d bv1b = _mm512_loadu_pd(b1 + j + 8);
          const __m512d bv2b = _mm512_loadu_pd(b2 + j + 8);
          const __m512d bv3b = _mm512_loadu_pd(b3 + j + 8);
          __m512d t0a = _mm512_loadu_pd(crow0 + j);
          __m512d t0b = _mm512_loadu_pd(crow0 + j + 8);
          t0a = _mm512_fmadd_pd(a00, bv0a, t0a);
          t0b = _mm512_fmadd_pd(a00, bv0b, t0b);
          t0a = _mm512_fmadd_pd(a01, bv1a, t0a);
          t0b = _mm512_fmadd_pd(a01, bv1b, t0b);
          t0a = _mm512_fmadd_pd(a02, bv2a, t0a);
          t0b = _mm512_fmadd_pd(a02, bv2b, t0b);
          t0a = _mm512_fmadd_pd(a03, bv3a, t0a);
          t0b = _mm512_fmadd_pd(a03, bv3b, t0b);
          _mm512_storeu_pd(crow0 + j, t0a);
          _mm512_storeu_pd(crow0 + j + 8, t0b);
          __m512d t1a = _mm512_loadu_pd(crow1 + j);
          __m512d t1b = _mm512_loadu_pd(crow1 + j + 8);
          t1a = _mm512_fmadd_pd(a10, bv0a, t1a);
          t1b = _mm512_fmadd_pd(a10, bv0b, t1b);
          t1a = _mm512_fmadd_pd(a11, bv1a, t1a);
          t1b = _mm512_fmadd_pd(a11, bv1b, t1b);
          t1a = _mm512_fmadd_pd(a12, bv2a, t1a);
          t1b = _mm512_fmadd_pd(a12, bv2b, t1b);
          t1a = _mm512_fmadd_pd(a13, bv3a, t1a);
          t1b = _mm512_fmadd_pd(a13, bv3b, t1b);
          _mm512_storeu_pd(crow1 + j, t1a);
          _mm512_storeu_pd(crow1 + j + 8, t1b);
        }
        for (; j + 8 <= width; j += 8) {
          const __m512d bv0 = _mm512_loadu_pd(b0 + j);
          const __m512d bv1 = _mm512_loadu_pd(b1 + j);
          const __m512d bv2 = _mm512_loadu_pd(b2 + j);
          const __m512d bv3 = _mm512_loadu_pd(b3 + j);
          __m512d t0 = _mm512_loadu_pd(crow0 + j);
          t0 = _mm512_fmadd_pd(a00, bv0, t0);
          t0 = _mm512_fmadd_pd(a01, bv1, t0);
          t0 = _mm512_fmadd_pd(a02, bv2, t0);
          t0 = _mm512_fmadd_pd(a03, bv3, t0);
          _mm512_storeu_pd(crow0 + j, t0);
          __m512d t1 = _mm512_loadu_pd(crow1 + j);
          t1 = _mm512_fmadd_pd(a10, bv0, t1);
          t1 = _mm512_fmadd_pd(a11, bv1, t1);
          t1 = _mm512_fmadd_pd(a12, bv2, t1);
          t1 = _mm512_fmadd_pd(a13, bv3, t1);
          _mm512_storeu_pd(crow1 + j, t1);
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
        AxpyAvx512(arow0[kk], b + kk * n + j0, crow0, width);
        AxpyAvx512(arow1[kk], b + kk * n + j0, crow1, width);
      }
    }
    for (; i < i1; ++i) {
      const double* arow = a + i * k;
      double* crow = c + i * n + j0;
      size_t kk = k0;
      for (; kk + 4 <= k1; kk += 4) {
        const __m512d a0 = _mm512_set1_pd(arow[kk]);
        const __m512d a1 = _mm512_set1_pd(arow[kk + 1]);
        const __m512d a2 = _mm512_set1_pd(arow[kk + 2]);
        const __m512d a3 = _mm512_set1_pd(arow[kk + 3]);
        const double* b0 = b + kk * n + j0;
        const double* b1 = b0 + n;
        const double* b2 = b1 + n;
        const double* b3 = b2 + n;
        size_t j = 0;
        for (; j + 8 <= width; j += 8) {
          __m512d t = _mm512_loadu_pd(crow + j);
          t = _mm512_fmadd_pd(a0, _mm512_loadu_pd(b0 + j), t);
          t = _mm512_fmadd_pd(a1, _mm512_loadu_pd(b1 + j), t);
          t = _mm512_fmadd_pd(a2, _mm512_loadu_pd(b2 + j), t);
          t = _mm512_fmadd_pd(a3, _mm512_loadu_pd(b3 + j), t);
          _mm512_storeu_pd(crow + j, t);
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
        AxpyAvx512(arow[kk], b + kk * n + j0, crow, width);
      }
    }
  }
}

void GemmNTTileAvx512(const double* a, const double* b, double* c, size_t k,
                      size_t n, size_t i0, size_t i1, size_t j0, size_t j1) {
  for (size_t i = i0; i < i1; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * n;
    for (size_t j = j0; j < j1; ++j) {
      crow[j] = DotAvx512(arow, b + j * k, k);
    }
  }
}

// --- Counter-based Gaussian (linalg/simd/philox_gaussian.h) ----------------
//
// Eight Philox blocks per register, one per 64-bit lane, each 32-bit word in
// the low half of its lane: _mm512_mul_epu32 (AVX-512F, no DQ needed) reads
// only low halves, so high halves may hold garbage until the words are
// masked. Integer-to-double conversions use the 2^52 bias trick (exact for
// values below 2^52), since AVX-512F has no int64 conversion.

struct NoiseKey512 {
  __m512i k0[philox::kRounds];  // round keys, broadcast
  __m512i k1[philox::kRounds];
  __m512i s_lo;  // stream words
  __m512i s_hi;
};

NoiseKey512 MakeNoiseKey512(uint64_t key, uint64_t stream) {
  NoiseKey512 nk;
  uint32_t k0 = static_cast<uint32_t>(key);
  uint32_t k1 = static_cast<uint32_t>(key >> 32);
  for (int r = 0; r < philox::kRounds; ++r) {
    if (r > 0) {
      k0 += philox::kW0;
      k1 += philox::kW1;
    }
    nk.k0[r] = _mm512_set1_epi64(k0);
    nk.k1[r] = _mm512_set1_epi64(k1);
  }
  nk.s_lo = _mm512_set1_epi64(static_cast<uint32_t>(stream));
  nk.s_hi = _mm512_set1_epi64(static_cast<uint32_t>(stream >> 32));
  return nk;
}

// Exact double of the low 32 bits of each lane (or of any value < 2^52).
inline __m512d ExactToDouble(__m512i v) {
  const __m512i bias = _mm512_set1_epi64(0x4330000000000000LL);  // 2^52
  return _mm512_sub_pd(_mm512_castsi512_pd(_mm512_or_si512(v, bias)),
                       _mm512_set1_pd(0x1p52));
}

// Draws 2j and 2j+1 of pairs j = j0 .. j0+8N-1: lane l of z_even[b] and
// z_odd[b] holds pair j0 + 8b + l. One block is a long dependency chain (ten
// Philox rounds, a division, a Horner log, a square root and a Horner
// sincos), so each stage runs over N independent blocks before the next
// stage starts and the core overlaps the chains. Every lane performs the
// same operations whatever N is, so N cannot move a bit.
template <int N>
inline void GaussianPairs(const NoiseKey512& nk, uint64_t j0,
                          __m512d (&z_even)[N], __m512d (&z_odd)[N]) {
  const __m512i lo32 = _mm512_set1_epi64(0xffffffffLL);
  const __m512i lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  __m512i c0[N], c1[N], c2[N], c3[N];
  for (int b = 0; b < N; ++b) {
    const __m512i j = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<int64_t>(j0 + 8 * b)), lane);
    c0[b] = j;
    c1[b] = _mm512_srli_epi64(j, 32);
    c2[b] = nk.s_lo;
    c3[b] = nk.s_hi;
  }
  const __m512i m0 = _mm512_set1_epi64(philox::kM0);
  const __m512i m1 = _mm512_set1_epi64(philox::kM1);
  for (int r = 0; r < philox::kRounds; ++r) {
    for (int b = 0; b < N; ++b) {
      const __m512i p0 = _mm512_mul_epu32(c0[b], m0);
      const __m512i p1 = _mm512_mul_epu32(c2[b], m1);
      // 0x96: three-way xor.
      c0[b] = _mm512_ternarylogic_epi64(_mm512_srli_epi64(p1, 32), c1[b],
                                        nk.k0[r], 0x96);
      c2[b] = _mm512_ternarylogic_epi64(_mm512_srli_epi64(p0, 32), c3[b],
                                        nk.k1[r], 0x96);
      c1[b] = p1;
      c3[b] = p0;
    }
  }

  // u1 = (x0 + (x1 + 1/2)·2^-32)·2^-32.
  __m512d u1[N];
  for (int b = 0; b < N; ++b) {
    const __m512d x0 = ExactToDouble(_mm512_and_si512(c0[b], lo32));
    const __m512d x1 = ExactToDouble(_mm512_and_si512(c1[b], lo32));
    u1[b] = _mm512_mul_pd(
        _mm512_fmadd_pd(_mm512_add_pd(x1, _mm512_set1_pd(0.5)),
                        _mm512_set1_pd(0x1p-32), x0),
        _mm512_set1_pd(0x1p-32));
  }

  // ln u1 = e·ln 2 + ln m, m ∈ [√½, √2).
  const __m512i sqrt_half = _mm512_set1_epi64(philox::kSqrtHalfBits);
  const __m512d one = _mm512_set1_pd(1.0);
  __m512d e[N], s[N], z[N], q[N];
  for (int b = 0; b < N; ++b) {
    const __m512i d = _mm512_sub_epi64(_mm512_castpd_si512(u1[b]), sqrt_half);
    const __m512i biased = _mm512_srli_epi64(
        _mm512_add_epi64(d, _mm512_set1_epi64(0x3FF0000000000000LL)), 52);
    const __m512d m = _mm512_castsi512_pd(_mm512_add_epi64(
        _mm512_and_si512(d, _mm512_set1_epi64(0x000FFFFFFFFFFFFFLL)),
        sqrt_half));
    e[b] = _mm512_sub_pd(ExactToDouble(biased), _mm512_set1_pd(1023.0));
    s[b] = _mm512_div_pd(_mm512_sub_pd(m, one), _mm512_add_pd(m, one));
    z[b] = _mm512_mul_pd(s[b], s[b]);
    q[b] = _mm512_set1_pd(philox::kLogQ[0]);
  }
  for (int k = 1; k < 10; ++k) {
    const __m512d coeff = _mm512_set1_pd(philox::kLogQ[k]);
    for (int b = 0; b < N; ++b) q[b] = _mm512_fmadd_pd(q[b], z[b], coeff);
  }
  __m512d r[N];
  for (int b = 0; b < N; ++b) {
    const __m512d ln_m = _mm512_fmadd_pd(s[b], _mm512_mul_pd(z[b], q[b]),
                                         _mm512_add_pd(s[b], s[b]));
    const __m512d ln_u1 = _mm512_fmadd_pd(
        e[b], _mm512_set1_pd(philox::kLn2Hi),
        _mm512_fmadd_pd(e[b], _mm512_set1_pd(philox::kLn2Lo), ln_m));
    r[b] = _mm512_sqrt_pd(_mm512_mul_pd(_mm512_set1_pd(-2.0), ln_u1));
  }

  // θ = (π/2)·(quadrant + t).
  __m512i quadrant[N];
  __m512d t[N], w[N], sp[N], cp[N];
  for (int b = 0; b < N; ++b) {
    const __m512i angle = _mm512_or_si512(
        _mm512_slli_epi64(_mm512_and_si512(c2[b], lo32), 20),
        _mm512_srli_epi64(_mm512_and_si512(c3[b], lo32), 12));
    const __m512i rounded =
        _mm512_add_epi64(angle, _mm512_set1_epi64(int64_t{1} << 49));
    quadrant[b] = _mm512_and_si512(_mm512_srli_epi64(rounded, 50),
                                   _mm512_set1_epi64(3));
    const __m512i rem_biased = _mm512_and_si512(  // t·2^50 + 2^49
        rounded, _mm512_set1_epi64((int64_t{1} << 50) - 1));
    t[b] = _mm512_mul_pd(
        _mm512_sub_pd(ExactToDouble(rem_biased), _mm512_set1_pd(0x1p49)),
        _mm512_set1_pd(0x1p-50));
    w[b] = _mm512_mul_pd(t[b], t[b]);
    sp[b] = _mm512_set1_pd(philox::kSin[0]);
    cp[b] = _mm512_set1_pd(philox::kCos[0]);
  }
  for (int k = 1; k < 9; ++k) {
    const __m512d sin_coeff = _mm512_set1_pd(philox::kSin[k]);
    const __m512d cos_coeff = _mm512_set1_pd(philox::kCos[k]);
    for (int b = 0; b < N; ++b) {
      sp[b] = _mm512_fmadd_pd(sp[b], w[b], sin_coeff);
      cp[b] = _mm512_fmadd_pd(cp[b], w[b], cos_coeff);
    }
  }
  const __m512i two = _mm512_set1_epi64(2);
  for (int b = 0; b < N; ++b) {
    const __m512d sin_t = _mm512_mul_pd(t[b], sp[b]);
    const __mmask8 odd =
        _mm512_test_epi64_mask(quadrant[b], _mm512_set1_epi64(1));
    const __m512i neg_cos = _mm512_slli_epi64(
        _mm512_and_si512(_mm512_add_epi64(quadrant[b], _mm512_set1_epi64(1)),
                         two),
        62);
    const __m512i neg_sin =
        _mm512_slli_epi64(_mm512_and_si512(quadrant[b], two), 62);
    const __m512d cos_theta = _mm512_castsi512_pd(_mm512_xor_si512(
        _mm512_castpd_si512(_mm512_mask_blend_pd(odd, cp[b], sin_t)),
        neg_cos));
    const __m512d sin_theta = _mm512_castsi512_pd(_mm512_xor_si512(
        _mm512_castpd_si512(_mm512_mask_blend_pd(odd, sin_t, cp[b])),
        neg_sin));
    z_even[b] = _mm512_mul_pd(r[b], cos_theta);
    z_odd[b] = _mm512_mul_pd(r[b], sin_theta);
  }
}

// The 16·N draws 2·j0 .. 2·j0+16N-1 in index order: lo[b] then hi[b] hold
// draws 2·j0+16b .. 2·j0+16b+15.
template <int N>
inline void GaussianDraws(const NoiseKey512& nk, uint64_t j0, __m512d (&lo)[N],
                          __m512d (&hi)[N]) {
  __m512d z_even[N], z_odd[N];
  GaussianPairs<N>(nk, j0, z_even, z_odd);
  for (int b = 0; b < N; ++b) {
    lo[b] = _mm512_permutex2var_pd(
        z_even[b], _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0), z_odd[b]);
    hi[b] = _mm512_permutex2var_pd(
        z_even[b], _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4), z_odd[b]);
  }
}

// Blocks per iteration of the main loop: 64 draws.
constexpr int kNoiseBlocks = 4;

void GaussianAccumulateAvx512(uint64_t key, uint64_t stream, uint64_t first,
                              double* dst, size_t n, double scale) {
  if (n == 0) return;
  const NoiseKey512 nk = MakeNoiseKey512(key, stream);
  const __m512d sv = _mm512_set1_pd(scale);
  const uint64_t end = first + n;
  uint64_t i = first;
  double* out = dst;
  alignas(64) double buf[16];
  __m512d lo[1], hi[1];
  if ((i & 1) != 0) {  // odd start: the sin half of pair i/2
    GaussianDraws<1>(nk, i >> 1, lo, hi);
    _mm512_store_pd(buf, lo[0]);
    *out = std::fma(scale, buf[1], *out);
    ++out;
    ++i;
  }
  for (; end - i >= 16 * kNoiseBlocks;
       i += 16 * kNoiseBlocks, out += 16 * kNoiseBlocks) {
    __m512d lo4[kNoiseBlocks], hi4[kNoiseBlocks];
    GaussianDraws<kNoiseBlocks>(nk, i >> 1, lo4, hi4);
    for (int b = 0; b < kNoiseBlocks; ++b) {
      double* o = out + 16 * b;
      _mm512_storeu_pd(o, _mm512_fmadd_pd(sv, lo4[b], _mm512_loadu_pd(o)));
      _mm512_storeu_pd(o + 8,
                       _mm512_fmadd_pd(sv, hi4[b], _mm512_loadu_pd(o + 8)));
    }
  }
  for (; end - i >= 16; i += 16, out += 16) {
    GaussianDraws<1>(nk, i >> 1, lo, hi);
    _mm512_storeu_pd(out, _mm512_fmadd_pd(sv, lo[0], _mm512_loadu_pd(out)));
    _mm512_storeu_pd(out + 8,
                     _mm512_fmadd_pd(sv, hi[0], _mm512_loadu_pd(out + 8)));
  }
  if (i < end) {
    GaussianDraws<1>(nk, i >> 1, lo, hi);
    _mm512_store_pd(buf, lo[0]);
    _mm512_store_pd(buf + 8, hi[0]);
    for (size_t t = 0; t < end - i; ++t) {
      out[t] = std::fma(scale, buf[t], out[t]);
    }
  }
}

const KernelTable kAvx512Table = {
    Level::kAvx512,
    "avx512",
    &DotAvx512,
    &SquaredNormAvx512,
    &SquaredDistanceAvx512,
    &AxpyAvx512,
    &ScaleAvx512,
    &SgnsAccumulateAvx512,
    &GemmTileAvx512,
    &GemmNTTileAvx512,
    &GaussianAccumulateAvx512,
};

}  // namespace

const KernelTable* Avx512Kernels() { return &kAvx512Table; }

}  // namespace sepriv::simd

#else  // !__AVX512F__

namespace sepriv::simd {

const KernelTable* Avx512Kernels() { return nullptr; }

}  // namespace sepriv::simd

#endif
