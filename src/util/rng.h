// Deterministic, seedable random number generation.
//
// All stochastic components of the library (graph generators, negative
// samplers, DP noise, weight initialisation) draw from this engine so that
// experiments are reproducible given a seed. The engine is xoshiro256**,
// seeded through splitmix64, which is both fast and statistically strong —
// and, unlike std::mt19937, has a guaranteed cross-platform stream.

#ifndef SEPRIVGEMB_UTIL_RNG_H_
#define SEPRIVGEMB_UTIL_RNG_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace sepriv {

/// splitmix64 step; used for seeding and cheap hash-like mixing.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One step of a splitmix64-chained hash: folds `word` into digest `h`.
/// Shared by Graph::Fingerprint and the proximity-cache key/checksum code so
/// the mixing discipline cannot silently diverge between them.
inline uint64_t HashMix(uint64_t h, uint64_t word) {
  uint64_t x = h ^ word;
  return SplitMix64(x);
}

/// xoshiro256** engine. Satisfies UniformRandomBitGenerator, so it can also
/// be plugged into <random> distributions when convenient.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x5eed5eed5eedULL) { Seed(seed); }

  /// Re-seeds the whole state from a single 64-bit value via splitmix64.
  /// Also drops the Box–Muller cache: a reseeded engine must be
  /// indistinguishable from a freshly constructed one, never emitting a
  /// normal draw left over from the previous stream.
  void Seed(uint64_t seed) {
    for (auto& word : s_) word = SplitMix64(seed);
    has_cached_ = false;
    cached_ = 0.0;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  uint64_t operator()() { return Next(); }

  /// Raw 64 random bits.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Moves the engine forward `n` draws: the state `n` calls to Next() would
  /// reach, in O(log n) steps. The xoshiro256** transition T is linear over
  /// GF(2), so T^n = q(T) for q(x) = x^n mod p(x), where p is the
  /// characteristic polynomial of T (jump-ahead; Haramoto et al., INFORMS
  /// J. Computing 2008). The Box–Muller cache is left as is, as it would be
  /// by `n` calls to Next(). Parallel fills give every block a copy of one
  /// engine advanced to the block's first draw (Matrix::FillUniform).
  void Advance(uint64_t n);

  /// Uniform double in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [0, n). n must be positive.
  uint64_t UniformInt(uint64_t n) {
    // Lemire's nearly-divisionless method.
    __uint128_t m = static_cast<__uint128_t>(Next()) * n;
    auto lo = static_cast<uint64_t>(m);
    if (lo < n) {
      const uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(Next()) * n;
        lo = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Standard normal via Box–Muller (cached second value).
  double Normal() {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u1 = Uniform();
    while (u1 <= 0.0) u1 = Uniform();
    const double u2 = Uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double theta = 6.283185307179586476925286766559 * u2;
    cached_ = radius * std::sin(theta);
    has_cached_ = true;
    return radius * std::cos(theta);
  }

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

  /// Pops the Box–Muller cached second value if one is pending. Lets bulk
  /// fills (kernels::FillGaussian) consume the cache exactly where the
  /// scalar Normal() loop would have, keeping the two paths stream-identical
  /// for every length and entry state.
  bool TakeCachedNormal(double& out) {
    if (!has_cached_) return false;
    has_cached_ = false;
    out = cached_;
    return true;
  }

  /// Full serializable engine state: the four xoshiro words plus the
  /// Box–Muller cache. Restoring this is bit-exact — a checkpoint taken
  /// between the two halves of a Box–Muller pair resumes mid-pair, so a
  /// resumed training run replays the identical normal stream.
  struct State {
    uint64_t s[4] = {};
    double cached = 0.0;
    bool has_cached = false;
  };

  State SaveState() const {
    State st;
    for (int i = 0; i < 4; ++i) st.s[i] = s_[i];
    st.cached = cached_;
    st.has_cached = has_cached_;
    return st;
  }

  void RestoreState(const State& st) {
    for (int i = 0; i < 4; ++i) s_[i] = st.s[i];
    cached_ = st.cached;
    has_cached_ = st.has_cached;
  }

  /// Derives the `stream`-th independent child from the current state
  /// WITHOUT advancing it: the same (state, stream) pair always yields the
  /// same child. This is the substream primitive parallel code uses to give
  /// every sample/row-block its own generator regardless of which worker
  /// thread processes it.
  Rng Fork(uint64_t stream) const {
    uint64_t mix = (s_[0] ^ Rotl(s_[2], 31)) +
                   (stream + 1) * 0x9e3779b97f4a7c15ULL;
    return Rng(SplitMix64(mix));
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  /// low(x) of the characteristic polynomial p(x) = x^256 + low(x) of the
  /// state transition, bit i%64 of word i/64 the coefficient of x^i.
  /// Derived from the engine on first use (rng.cc).
  static const std::array<uint64_t, 4>& CharPolyLow();

  uint64_t s_[4] = {};
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace sepriv

#endif  // SEPRIVGEMB_UTIL_RNG_H_
