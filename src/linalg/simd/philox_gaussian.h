// Counter-based Gaussian noise: the definition behind
// kernels::GaussianAccumulate, which every dispatch level reproduces bit
// for bit.
//
// Draw i of stream s under a 64-bit key is a pure function Z(key, s, i):
//
//   j = i / 2, one Philox4x32-10 block per pair of draws (Salmon et al.,
//   SC'11, "Parallel random numbers: as easy as 1, 2, 3"):
//     (x0, x1, x2, x3) = Philox4x32-10(ctr = (lo32 j, hi32 j, lo32 s, hi32 s),
//                                      key = (lo32 key, hi32 key))
//   u1 = (x0 + (x1 + 1/2)·2^-32)·2^-32   sum rounded once; u1 ∈ [2^-65, 1]
//   K  = x2·2^20 + floor(x3 / 2^12)      52 bits; u2 = K·2^-52 ∈ [0, 1)
//   r  = sqrt(-2 ln u1),  θ = 2π·u2
//   Z(key, s, 2j) = r·cos θ,  Z(key, s, 2j+1) = r·sin θ
//
// Every step is an exact IEEE-754 operation (integer bit manipulation,
// exact conversions and power-of-two scalings, one division, one square
// root, plain products) or a single fused multiply-add, so a vector level
// that performs the same operations lane-wise produces the same bits:
//
//   ln u1   u1 = 2^e·m exactly, m ∈ [√½, √2), split with integer arithmetic
//           on the bit pattern; s = (m−1)/(m+1) is the one division; then
//           ln m = 2s + s·(z·Q(z)), z = s², where Q(z) = Σ_{k=1..10}
//           2/(2k+1)·z^{k−1} is the Taylor series of 2·atanh(s)/s − 2 over
//           z (|s| ≤ 0.1716, truncation < 10^-18 relative); finally
//           ln u1 = fma(e, ln2_hi, fma(e, ln2_lo, ln m)).
//   sincos  4·u2 = q + t exactly, with q = round(4·u2) mod 4 read from the
//           top bits of K and t ∈ [−1/2, 1/2) from the rest; sin(πt/2) =
//           t·S(t²) and cos(πt/2) = C(t²) are Taylor polynomials to t^17
//           and t^16 (truncation < 10^-18 relative), evaluated by Horner
//           fmas; q only swaps and negates them.
//
// The vector TUs write every multiply-add as an explicit fma and never feed
// a plain product into an addition, so compiler contraction (g++ contracts
// a*b + c, and _mm*_mul_pd followed by _mm*_add_pd, under -mfma) cannot
// move a bit either. The constants below are the single source of the
// coefficients for all three TUs; the functions are defined once, in the
// scalar TU, so no copy of them is ever compiled with vector ISA flags.

#ifndef SEPRIVGEMB_LINALG_SIMD_PHILOX_GAUSSIAN_H_
#define SEPRIVGEMB_LINALG_SIMD_PHILOX_GAUSSIAN_H_

#include <cstdint>

namespace sepriv::simd::philox {

// Philox4x32 round multipliers and Weyl key increments (Random123).
inline constexpr uint32_t kM0 = 0xD2511F53u;
inline constexpr uint32_t kM1 = 0xCD9E8D57u;
inline constexpr uint32_t kW0 = 0x9E3779B9u;
inline constexpr uint32_t kW1 = 0xBB67AE85u;
inline constexpr int kRounds = 10;

// ln: bit pattern of the double nearest √½ (the split point of m), the
// Taylor coefficients 2/(2k+1) of Q, highest first, and ln 2 split so that
// ln2_hi + ln2_lo carries ~107 bits.
inline constexpr uint64_t kSqrtHalfBits = 0x3FE6A09E667F3BCDull;
inline constexpr double kLogQ[10] = {
    0x1.8618618618618p-4,  // 2/21
    0x1.af286bca1af28p-4,  // 2/19
    0x1.e1e1e1e1e1e1ep-4,  // 2/17
    0x1.1111111111111p-3,  // 2/15
    0x1.3b13b13b13b14p-3,  // 2/13
    0x1.745d1745d1746p-3,  // 2/11
    0x1.c71c71c71c71cp-3,  // 2/9
    0x1.2492492492492p-2,  // 2/7
    0x1.999999999999ap-2,  // 2/5
    0x1.5555555555555p-1,  // 2/3
};
inline constexpr double kLn2Hi = 0x1.62e42fefa39efp-1;
inline constexpr double kLn2Lo = 0x1.abc9e3b39803fp-56;

// sin(πt/2) = t·S(t²), cos(πt/2) = C(t²): (−1)^k (π/2)^n / n!, highest
// degree first.
inline constexpr double kSin[9] = {
    0x1.aaec32af93359p-38,   -0x1.6fadb9f155744p-31, 0x1.e8f434d018d63p-25,
    -0x1.e3074fde8871fp-19,  0x1.50783487ee782p-13,  -0x1.32d2cce62bd86p-8,
    0x1.466bc6775aae2p-4,    -0x1.4abbce625be53p-1,  0x1.921fb54442d18p+0,
};
inline constexpr double kCos[9] = {
    0x1.20c62c2f2d7f5p-34,   -0x1.b6e24f44b128fp-28, 0x1.f9d38a3763cc3p-22,
    -0x1.a6d1f2a204a8cp-16,  0x1.e1f506891babbp-11,  -0x1.55d3c7e3cbffap-6,
    0x1.03c1f081b5ac4p-2,    -0x1.3bd3cc9be45dep+0,  0x1.0000000000000p+0,
};

/// One Philox4x32 counter block or output.
struct Block {
  uint32_t v[4];
};

/// Philox4x32-10 of `ctr` under key (lo32 key, hi32 key).
Block Philox4x32_10(Block ctr, uint64_t key);

/// The two draws of one block's output words: z_even = r·cos θ and
/// z_odd = r·sin θ, per the definition above. The scalar reference.
void GaussianPairFromBits(const Block& x, double* z_even, double* z_odd);

}  // namespace sepriv::simd::philox

#endif  // SEPRIVGEMB_LINALG_SIMD_PHILOX_GAUSSIAN_H_
