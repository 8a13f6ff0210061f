// Statistical gate for the counter-based Gaussian kernel
// (kernels::GaussianAccumulate, linalg/simd/philox_gaussian.h) at the
// active dispatch level: 10^8 draws over 2000 (key, stream) pairs must look
// like i.i.d. N(0, 1). Every check is a 5-standard-error (or 5σ-equivalent)
// bound, and the keys are fixed, so the outcome is deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "linalg/kernels.h"
#include "util/rng.h"

namespace sepriv {
namespace {

constexpr size_t kKeys = 1000;             // each with streams 0 and 1
constexpr size_t kDrawsPerStream = 50000;  // 10^8 draws in total
constexpr size_t kKsPerStream = 2048;      // KS subsample: 4.1·10^6 draws
constexpr int kTailK = 5;

struct Moments {
  long double n = 0, s1 = 0, s2 = 0, s3 = 0, s4 = 0;
  size_t beyond[kTailK + 2] = {};  // beyond[b]: draws with floor|z| == b
  double max_abs = 0.0;
  long double lag1 = 0;  // Σ z_i z_{i+1} within a stream
  size_t lag1_n = 0;
  long double cross = 0;  // Σ z0_i z1_i across the two streams of a key
  size_t cross_n = 0;

  void Add(const std::vector<double>& z) {
    double p1 = 0, p2 = 0, p3 = 0, p4 = 0, lag = 0;
    for (size_t i = 0; i < z.size(); ++i) {
      const double x = z[i];
      const double x2 = x * x;
      p1 += x;
      p2 += x2;
      p3 += x2 * x;
      p4 += x2 * x2;
      const double a = std::fabs(x);
      max_abs = std::max(max_abs, a);
      ++beyond[std::min<size_t>(static_cast<size_t>(a), kTailK + 1)];
      if (i + 1 < z.size()) lag += x * z[i + 1];
    }
    n += z.size();
    s1 += p1;
    s2 += p2;
    s3 += p3;
    s4 += p4;
    lag1 += lag;
    lag1_n += z.size() - 1;
  }
};

TEST(NoiseStatsTest, HundredMillionDrawsLookStandardNormal) {
  Moments m;
  std::vector<double> ks;
  ks.reserve(kKeys * 2 * kKsPerStream);
  std::vector<double> z0(kDrawsPerStream), z1(kDrawsPerStream);
  uint64_t seed = 0x6e6f697365ull;
  for (size_t k = 0; k < kKeys; ++k) {
    const uint64_t key = SplitMix64(seed);
    std::fill(z0.begin(), z0.end(), 0.0);
    std::fill(z1.begin(), z1.end(), 0.0);
    kernels::GaussianAccumulate(key, 0, 0, z0.data(), z0.size(), 1.0);
    kernels::GaussianAccumulate(key, 1, 0, z1.data(), z1.size(), 1.0);
    m.Add(z0);
    m.Add(z1);
    double cross = 0;
    for (size_t i = 0; i < kDrawsPerStream; ++i) cross += z0[i] * z1[i];
    m.cross += cross;
    m.cross_n += kDrawsPerStream;
    ks.insert(ks.end(), z0.begin(), z0.begin() + kKsPerStream);
    ks.insert(ks.end(), z1.begin(), z1.begin() + kKsPerStream);
  }

  const double n = static_cast<double>(m.n);
  ASSERT_GE(n, 1e8);
  const long double mean = m.s1 / m.n;
  const long double var = m.s2 / m.n - mean * mean;
  const long double mu3 =
      m.s3 / m.n - 3 * mean * m.s2 / m.n + 2 * mean * mean * mean;
  const long double mu4 = m.s4 / m.n - 4 * mean * m.s3 / m.n +
                          6 * mean * mean * m.s2 / m.n -
                          3 * mean * mean * mean * mean;
  const double skew = static_cast<double>(mu3 / std::pow(var, 1.5L));
  const double kurt = static_cast<double>(mu4 / (var * var));
  // Standard errors of the sample moments of N(0, 1).
  EXPECT_LT(std::fabs(static_cast<double>(mean)), 5.0 / std::sqrt(n));
  EXPECT_LT(std::fabs(static_cast<double>(var) - 1.0),
            5.0 * std::sqrt(2.0 / n));
  EXPECT_LT(std::fabs(skew), 5.0 * std::sqrt(6.0 / n));
  EXPECT_LT(std::fabs(kurt - 3.0), 5.0 * std::sqrt(24.0 / n));

  // P(|Z| > k) against erfc(k/√2), 5σ binomial bounds.
  size_t tail = 0;
  for (int k = kTailK + 1; k >= 1; --k) {
    tail += m.beyond[k];
    if (k > kTailK) continue;
    const double p = std::erfc(k / std::sqrt(2.0));
    const double sd = std::sqrt(n * p * (1 - p));
    EXPECT_LT(std::fabs(static_cast<double>(tail) - n * p), 5.0 * sd)
        << "P(|Z| > " << k << "): " << tail << " of " << n;
  }

  // Box–Muller ceiling: u1 ≥ 2^-65, so |Z| ≤ sqrt(-2 ln 2^-65).
  EXPECT_LE(m.max_abs, std::sqrt(130.0 * std::log(2.0)));

  // Lag-1 (within a stream) and cross-stream correlations.
  const double lag_n = static_cast<double>(m.lag1_n);
  EXPECT_LT(std::fabs(static_cast<double>(m.lag1) / lag_n),
            5.0 / std::sqrt(lag_n));
  const double cross_n = static_cast<double>(m.cross_n);
  EXPECT_LT(std::fabs(static_cast<double>(m.cross) / cross_n),
            5.0 / std::sqrt(cross_n));

  // Kolmogorov–Smirnov against Φ on the subsample. sup√n·D beyond 2.745 has
  // probability ≈ 2·exp(−2·2.745²) ≈ 5.7e-7, the two-sided 5σ level.
  std::sort(ks.begin(), ks.end());
  const double kn = static_cast<double>(ks.size());
  double d = 0.0;
  for (size_t i = 0; i < ks.size(); ++i) {
    const double phi = 0.5 * std::erfc(-ks[i] / std::sqrt(2.0));
    d = std::max({d, static_cast<double>(i + 1) / kn - phi,
                  phi - static_cast<double>(i) / kn});
  }
  EXPECT_LT(std::sqrt(kn) * d, 2.745) << "KS D = " << d << " over " << kn;
  std::printf("n=%.0f mean=%.3g var=%.6f skew=%.3g kurt=%.5f max|z|=%.3f "
              "sqrt(n)D=%.3f\n",
              n, static_cast<double>(mean), static_cast<double>(var), skew,
              kurt, m.max_abs, std::sqrt(kn) * d);
}

}  // namespace
}  // namespace sepriv
