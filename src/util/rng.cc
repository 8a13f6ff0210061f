// Jump-ahead for the xoshiro256** engine (Rng::Advance).
//
// The state transition T of xoshiro256** is a 256x256 matrix over GF(2).
// By Cayley–Hamilton p(T) = 0 for its characteristic polynomial p, so
// T^n = q(T) with q(x) = x^n mod p(x), a polynomial of degree < 256:
// q is found by square-and-multiply in GF(2)[x]/p, and q(T)·s is the XOR of
// the states T^i·s over the coefficients q_i = 1 — 256 engine steps.
//
// p is derived once per process from the engine itself. The sequence of one
// state bit under T satisfies the recurrence of T's minimal polynomial;
// xoshiro256** has full period 2^256 - 1, so p is primitive, the minimal
// polynomial of any non-zero bit sequence is p itself, and Berlekamp–Massey
// over 512 terms recovers it. A length other than 256 would mean the
// engine and this derivation disagree, so it aborts.

#include "util/rng.h"

#include <array>
#include <vector>

#include "util/check.h"

namespace sepriv {
namespace {

constexpr int kStateBits = 256;

/// A polynomial over GF(2) of degree < 256: bit i%64 of word i/64 is the
/// coefficient of x^i.
using Poly = std::array<uint64_t, 4>;

/// Berlekamp–Massey over GF(2): the connection polynomial
/// C(x) = 1 + c_1 x + ... + c_L x^L of the shortest linear recurrence
/// s_i = c_1 s_{i-1} + ... + c_L s_{i-L} that generates `s`; sets *length
/// to L. c[j] is c_j.
std::vector<uint8_t> BerlekampMassey(const std::vector<uint8_t>& s,
                                     size_t* length) {
  const size_t n = s.size();
  std::vector<uint8_t> c(n + 1, 0), b(n + 1, 0);
  c[0] = b[0] = 1;
  size_t l = 0, m = 1;
  for (size_t i = 0; i < n; ++i) {
    uint8_t d = s[i];
    for (size_t j = 1; j <= l; ++j) d ^= c[j] & s[i - j];
    if (d == 0) {
      ++m;
      continue;
    }
    const std::vector<uint8_t> prev = c;
    for (size_t j = 0; j + m <= n; ++j) c[j + m] ^= b[j];
    if (2 * l <= i) {
      l = i + 1 - l;
      b = prev;
      m = 1;
    } else {
      ++m;
    }
  }
  *length = l;
  return c;
}

/// p(x) = x^L C(1/x) for the connection polynomial `c` of length L = 256:
/// the coefficient of x^j is c_{L-j}. Returns p's terms below x^256.
Poly CharPolyFromConnection(const std::vector<uint8_t>& c) {
  Poly low = {};
  for (int j = 0; j < kStateBits; ++j) {
    low[j / 64] |= static_cast<uint64_t>(c[kStateBits - j]) << (j % 64);
  }
  return low;
}

/// The 32 bits of `x` moved to the even bit positions of a 64-bit word:
/// the square of a GF(2) polynomial.
uint64_t Spread(uint64_t x) {
  x &= 0xffffffffULL;
  x = (x | (x << 16)) & 0x0000ffff0000ffffULL;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffULL;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0fULL;
  x = (x | (x << 2)) & 0x3333333333333333ULL;
  x = (x | (x << 1)) & 0x5555555555555555ULL;
  return x;
}

/// a(x)^2 mod p(x). Squaring over GF(2) only spreads the coefficients to
/// the even powers; each term x^i with i >= 256 then folds down, from the
/// top, as x^(i-256)·low(x), whose degree is below i.
Poly SquareMod(const Poly& a, const Poly& low) {
  uint64_t wide[8] = {};
  for (int w = 0; w < 4; ++w) {
    wide[2 * w] = Spread(a[w]);
    wide[2 * w + 1] = Spread(a[w] >> 32);
  }
  for (int i = 2 * kStateBits - 1; i >= kStateBits; --i) {
    if (((wide[i / 64] >> (i % 64)) & 1) == 0) continue;
    wide[i / 64] ^= uint64_t{1} << (i % 64);
    const int k = i - kStateBits;
    const int word = k / 64, bit = k % 64;
    for (int w = 0; w < 4; ++w) {
      wide[word + w] ^= low[w] << bit;
      if (bit != 0) wide[word + w + 1] ^= low[w] >> (64 - bit);
    }
  }
  return {wide[0], wide[1], wide[2], wide[3]};
}

/// a(x)·x mod p(x).
Poly MulXMod(const Poly& a, const Poly& low) {
  const bool carry = (a[3] >> 63) != 0;
  Poly r = {a[0] << 1, (a[1] << 1) | (a[0] >> 63), (a[2] << 1) | (a[1] >> 63),
            (a[3] << 1) | (a[2] >> 63)};
  if (carry) {
    for (int w = 0; w < 4; ++w) r[w] ^= low[w];
  }
  return r;
}

/// x^n mod p(x), n > 0, by left-to-right square-and-multiply.
Poly XPowMod(uint64_t n, const Poly& low) {
  int bit = 63;
  while (((n >> bit) & 1) == 0) --bit;
  Poly r = {2, 0, 0, 0};  // x: the leading bit of n
  while (--bit >= 0) {
    r = SquareMod(r, low);
    if ((n >> bit) & 1) r = MulXMod(r, low);
  }
  return r;
}

}  // namespace

const std::array<uint64_t, 4>& Rng::CharPolyLow() {
  static const Poly low = [] {
    Rng engine(0x5eed5eed5eedULL);
    std::vector<uint8_t> bits(2 * kStateBits);
    for (auto& bit : bits) {
      bit = static_cast<uint8_t>(engine.s_[0] & 1);
      engine.Next();
    }
    size_t length = 0;
    const std::vector<uint8_t> c = BerlekampMassey(bits, &length);
    SEPRIV_CHECK(length == kStateBits,
                 "xoshiro256** state bit has linear complexity %zu, not 256",
                 length);
    return CharPolyFromConnection(c);
  }();
  return low;
}

void Rng::Advance(uint64_t n) {
  if (n == 0) return;
  const Poly q = XPowMod(n, CharPolyLow());
  uint64_t acc[4] = {};
  for (int i = 0; i < kStateBits; ++i) {
    if ((q[i / 64] >> (i % 64)) & 1) {
      for (int w = 0; w < 4; ++w) acc[w] ^= s_[w];
    }
    Next();
  }
  for (int w = 0; w < 4; ++w) s_[w] = acc[w];
}

}  // namespace sepriv
