// Property tests for the vectorized kernel layer: every kernel is checked
// against a naive single-accumulator reference across sizes 1..~130 (so the
// remainder lanes of the 8-wide accumulation shape are all exercised) at
// every compiled-in+supported SIMD dispatch level, the GEMMs against shape
// edge cases, the parallel paths for bit-identical output across thread
// counts, and every dispatch level for bit-identical output against the
// scalar reference level (the simd/dispatch.h contract).

#include "linalg/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/naive_reference.h"
#include "core/se_privgemb.h"
#include "graph/generators.h"
#include "linalg/matrix.h"
#include "linalg/simd/cpu_features.h"
#include "linalg/simd/philox_gaussian.h"
#include "nn/gcn.h"
#include "util/digest.h"
#include "util/rng.h"

namespace sepriv {
namespace {

std::vector<double> RandomVec(Rng& rng, size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.Uniform(-2.0, 2.0);
  return v;
}

// Restores the auto thread policy after a test that pins the pool size.
struct ThreadGuard {
  ~ThreadGuard() { kernels::SetLinalgThreads(0); }
};

// Restores auto dispatch after a test that forces a SIMD level.
struct LevelGuard {
  ~LevelGuard() { simd::ResetLevel(); }
};

// Every dispatch level this build+CPU can actually run (always >= scalar).
std::vector<simd::Level> SupportedLevels() {
  std::vector<simd::Level> out;
  for (simd::Level level :
       {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (simd::LevelSupported(level)) out.push_back(level);
  }
  return out;
}

TEST(KernelsTest, ReductionsMatchNaiveAcrossRemainderLanesPerLevel) {
  LevelGuard guard;
  for (simd::Level level : SupportedLevels()) {
    simd::SetLevel(level);
    Rng rng(11);
    for (size_t n = 1; n <= 130; ++n) {
      const auto a = RandomVec(rng, n);
      const auto b = RandomVec(rng, n);
      // The 8-accumulator fma shape reassociates the sum, so compare with a
      // relative tolerance, not bit equality.
      const double tol = 1e-12 * static_cast<double>(n);
      EXPECT_NEAR(kernels::Dot(a.data(), b.data(), n),
                  naive::Dot(a.data(), b.data(), n), tol)
          << "n=" << n << " level=" << simd::LevelName(level);
      EXPECT_NEAR(kernels::SquaredNorm(a.data(), n),
                  naive::SquaredNorm(a.data(), n), tol)
          << "n=" << n << " level=" << simd::LevelName(level);
      EXPECT_NEAR(kernels::SquaredDistance(a.data(), b.data(), n),
                  naive::SquaredDistance(a.data(), b.data(), n), tol)
          << "n=" << n << " level=" << simd::LevelName(level);
    }
  }
}

TEST(KernelsTest, ReductionsAreDeterministic) {
  Rng rng(12);
  const auto a = RandomVec(rng, 101);
  const auto b = RandomVec(rng, 101);
  EXPECT_EQ(kernels::Dot(a.data(), b.data(), a.size()),
            kernels::Dot(a.data(), b.data(), a.size()));
  EXPECT_EQ(kernels::SquaredNorm(a.data(), a.size()),
            kernels::SquaredNorm(a.data(), a.size()));
}

TEST(KernelsTest, AxpyScaleStoreMatchNaivePerLevel) {
  LevelGuard guard;
  for (simd::Level level : SupportedLevels()) {
    simd::SetLevel(level);
    Rng rng(13);
    for (size_t n : {1u, 3u, 4u, 7u, 64u, 129u}) {
      const auto x = RandomVec(rng, n);
      auto y = RandomVec(rng, n);
      auto y_ref = y;
      kernels::Axpy(0.75, x.data(), y.data(), n);
      // Elementwise contract: one fma per element — bit-identical.
      for (size_t i = 0; i < n; ++i) y_ref[i] = std::fma(0.75, x[i], y_ref[i]);
      EXPECT_EQ(y, y_ref) << "n=" << n << " level=" << simd::LevelName(level);

      kernels::Scale(-1.5, y.data(), n);
      for (size_t i = 0; i < n; ++i) y_ref[i] *= -1.5;
      EXPECT_EQ(y, y_ref);
    }
  }
}

TEST(KernelsTest, SgnsAccumulateMatchesCompositionPerLevel) {
  LevelGuard guard;
  for (simd::Level level : SupportedLevels()) {
    simd::SetLevel(level);
    Rng rng(14);
    for (size_t dim : {1u, 5u, 32u, 127u}) {
      const auto vi = RandomVec(rng, dim);
      const auto vn = RandomVec(rng, dim);
      std::vector<double> center(dim, 0.5), row(dim, -3.0);
      const double x = kernels::SgnsAccumulate(vi.data(), vn.data(), dim, 0.8,
                                               1.0, center.data(), row.data());
      EXPECT_EQ(x, kernels::Dot(vi.data(), vn.data(), dim));
      const double coeff = 0.8 * (kernels::Sigmoid(x) - 1.0);
      for (size_t d = 0; d < dim; ++d) {
        EXPECT_EQ(center[d], std::fma(coeff, vn[d], 0.5))
            << "level=" << simd::LevelName(level);
        EXPECT_EQ(row[d], coeff * vi[d]);
      }
    }
  }
}

// --- Cross-level bit-identity: the simd/dispatch.h contract ---------------

TEST(KernelsTest, CpuFeaturesApi) {
  // Scalar is always compiled in and supported; the auto choice must be a
  // supported level; names round-trip through ParseLevel.
  EXPECT_TRUE(simd::LevelCompiled(simd::Level::kScalar));
  EXPECT_TRUE(simd::LevelSupported(simd::Level::kScalar));
  EXPECT_TRUE(simd::LevelSupported(simd::BestSupportedLevel()));
  for (simd::Level level : SupportedLevels()) {
    simd::Level parsed;
    ASSERT_TRUE(simd::ParseLevel(simd::LevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  simd::Level ignored;
  EXPECT_FALSE(simd::ParseLevel("avx1024", &ignored));
  EXPECT_FALSE(simd::ParseLevel("", &ignored));

  LevelGuard guard;
  for (simd::Level level : SupportedLevels()) {
    simd::SetLevel(level);
    EXPECT_EQ(simd::ActiveLevel(), level);
  }
}

TEST(KernelsTest, ReductionsBitIdenticalAcrossLevels) {
  LevelGuard guard;
  const auto levels = SupportedLevels();
  Rng rng(41);
  for (size_t n = 1; n <= 130; ++n) {
    const auto a = RandomVec(rng, n);
    const auto b = RandomVec(rng, n);
    simd::SetLevel(simd::Level::kScalar);
    const double dot = kernels::Dot(a.data(), b.data(), n);
    const double norm = kernels::SquaredNorm(a.data(), n);
    const double dist = kernels::SquaredDistance(a.data(), b.data(), n);
    for (simd::Level level : levels) {
      simd::SetLevel(level);
      EXPECT_EQ(kernels::Dot(a.data(), b.data(), n), dot)
          << "n=" << n << " level=" << simd::LevelName(level);
      EXPECT_EQ(kernels::SquaredNorm(a.data(), n), norm)
          << "n=" << n << " level=" << simd::LevelName(level);
      EXPECT_EQ(kernels::SquaredDistance(a.data(), b.data(), n), dist)
          << "n=" << n << " level=" << simd::LevelName(level);
    }
  }
}

TEST(KernelsTest, SgnsAccumulateBitIdenticalAcrossLevels) {
  LevelGuard guard;
  Rng rng(42);
  for (size_t dim : {1u, 7u, 16u, 33u, 128u}) {
    const auto vi = RandomVec(rng, dim);
    const auto vn = RandomVec(rng, dim);
    simd::SetLevel(simd::Level::kScalar);
    std::vector<double> center_ref(dim, 0.25), row_ref(dim, 0.0);
    const double x_ref = kernels::SgnsAccumulate(
        vi.data(), vn.data(), dim, 0.8, 1.0, center_ref.data(),
        row_ref.data());
    for (simd::Level level : SupportedLevels()) {
      simd::SetLevel(level);
      std::vector<double> center(dim, 0.25), row(dim, 0.0);
      const double x = kernels::SgnsAccumulate(vi.data(), vn.data(), dim, 0.8,
                                               1.0, center.data(), row.data());
      EXPECT_EQ(x, x_ref) << "dim=" << dim;
      EXPECT_EQ(center, center_ref)
          << "dim=" << dim << " level=" << simd::LevelName(level);
      EXPECT_EQ(row, row_ref)
          << "dim=" << dim << " level=" << simd::LevelName(level);
    }
  }
}

TEST(KernelsTest, GemmBitIdenticalAcrossLevels) {
  LevelGuard guard;
  Rng rng(43);
  // Spans multiple tiles, odd remainders on every axis, and all three GEMM
  // variants.
  Matrix a(131, 67, 0.0), b(67, 139, 0.0);
  a.FillUniform(rng, -1.0, 1.0);
  b.FillUniform(rng, -1.0, 1.0);
  simd::SetLevel(simd::Level::kScalar);
  const uint64_t nn = MatrixDigest(MatMul(a, b));
  const uint64_t tn = MatrixDigest(MatTMul(a, Matrix(a)));
  const uint64_t nt = MatrixDigest(MatMulT(b, Matrix(b)));
  for (simd::Level level : SupportedLevels()) {
    simd::SetLevel(level);
    EXPECT_EQ(MatrixDigest(MatMul(a, b)), nn) << simd::LevelName(level);
    EXPECT_EQ(MatrixDigest(MatTMul(a, Matrix(a))), tn)
        << simd::LevelName(level);
    EXPECT_EQ(MatrixDigest(MatMulT(b, Matrix(b))), nt)
        << simd::LevelName(level);
  }
}

TEST(KernelsTest, TrainResultDigestInvariantAcrossLevels) {
  // End-to-end witness for the ISSUE acceptance criterion: a full (small)
  // SE-PrivGEmb training run produces the identical model under every
  // dispatch level — SEPRIV_SIMD can never change results, only wall-clock.
  LevelGuard guard;
  const Graph g = KarateClub();
  SePrivGEmbConfig cfg;
  cfg.dim = 16;
  cfg.negatives = 5;
  cfg.batch_size = 32;
  cfg.learning_rate = 0.1;
  cfg.max_epochs = 12;
  cfg.noise_multiplier = 5.0;
  cfg.clip_threshold = 2.0;
  cfg.epsilon = 3.5;
  cfg.delta = 1e-5;
  cfg.seed = 42;

  simd::SetLevel(simd::Level::kScalar);
  SePrivGEmb ref_trainer(g, ProximityKind::kDeepWalk, cfg);
  const TrainResult ref = ref_trainer.Train();
  const uint64_t w_in = MatrixDigest(ref.model.w_in);
  const uint64_t w_out = MatrixDigest(ref.model.w_out);

  for (simd::Level level : SupportedLevels()) {
    simd::SetLevel(level);
    SePrivGEmb trainer(g, ProximityKind::kDeepWalk, cfg);
    const TrainResult r = trainer.Train();
    EXPECT_EQ(MatrixDigest(r.model.w_in), w_in) << simd::LevelName(level);
    EXPECT_EQ(MatrixDigest(r.model.w_out), w_out) << simd::LevelName(level);
    EXPECT_EQ(r.epochs_run, ref.epochs_run);
  }
}

TEST(KernelsTest, FillGaussianStreamIdenticalToScalarNormal) {
  // The block fill must emit exactly the draws the cached Box–Muller scalar
  // path produced AND leave the engine in the identical state — for every
  // length parity and entry state (fresh, or with a pending cached value
  // from a preceding odd number of scalar draws). Pre-existing noise
  // streams are part of the determinism contract, unconditionally.
  for (size_t n : {1u, 2u, 7u, 64u}) {
    for (int warmup_draws : {0, 1}) {
      Rng block_rng(21), scalar_rng(21);
      for (int w = 0; w < warmup_draws; ++w) {
        EXPECT_EQ(block_rng.Normal(), scalar_rng.Normal());
      }
      std::vector<double> block(n);
      kernels::FillGaussian(block_rng, block.data(), n, 0.5, 2.0);
      for (double x : block) {
        EXPECT_EQ(x, scalar_rng.Normal(0.5, 2.0))
            << "n=" << n << " warmup=" << warmup_draws;
      }
      // Identical post-state: subsequent scalar draws agree.
      EXPECT_EQ(block_rng.Normal(), scalar_rng.Normal());
      EXPECT_EQ(block_rng.Normal(), scalar_rng.Normal());
    }
  }
}

TEST(KernelsTest, AccumulateGaussianAddsScaledNoise) {
  Rng r1(23), r2(23);
  std::vector<double> base(32, 10.0), noise(32);
  kernels::AccumulateGaussian(r1, base.data(), base.size(), 3.0);
  kernels::FillGaussian(r2, noise.data(), noise.size(), 0.0, 1.0);
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_NEAR(base[i], 10.0 + 3.0 * noise[i], 1e-12);
  }
}

TEST(KernelsTest, GaussianMomentsSane) {
  Rng rng(24);
  const size_t n = 100001;  // odd on purpose
  std::vector<double> v(n);
  kernels::FillGaussian(rng, v.data(), n, 1.0, 2.0);
  double sum = 0.0, sumsq = 0.0;
  for (double x : v) {
    sum += x;
    sumsq += (x - 1.0) * (x - 1.0);
  }
  EXPECT_NEAR(sum / static_cast<double>(n), 1.0, 0.05);
  EXPECT_NEAR(sumsq / static_cast<double>(n), 4.0, 0.1);
}

// --- Counter-based Gaussian (kernels::GaussianAccumulate) ------------------

uint64_t Bits(double x) {
  uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

// Random123's published Philox4x32-10 known answers.
TEST(PhiloxTest, KnownAnswers) {
  struct Case {
    simd::philox::Block ctr;
    uint64_t key;
    simd::philox::Block want;
  };
  using simd::philox::Block;
  const Case cases[] = {
      {{{0, 0, 0, 0}}, 0, {{0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8}}},
      {{{0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff}},
       0xffffffffffffffffull,
       {{0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd}}},
      {{{0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344}},
       0x299f31d0a4093822ull,  // key words (0xa4093822, 0x299f31d0)
       {{0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1}}},
  };
  for (const Case& c : cases) {
    const Block got = simd::philox::Philox4x32_10(c.ctr, c.key);
    for (int w = 0; w < 4; ++w) {
      EXPECT_EQ(got.v[w], c.want.v[w]) << "word " << w;
    }
  }
}

// The kernel is the documented function: draw i of (key, stream) comes from
// Philox block (i/2, stream), cos half for even i and sin half for odd i.
TEST(GaussianAccumulateTest, ScalarLevelFollowsTheDefinition) {
  LevelGuard guard;
  simd::SetLevel(simd::Level::kScalar);
  const uint64_t key = 0x0123456789abcdefull;
  const uint64_t stream = 0x100000002ull;
  const uint64_t first = (uint64_t{1} << 33) + 3;
  std::vector<double> dst(9, 0.0);
  kernels::GaussianAccumulate(key, stream, first, dst.data(), dst.size(), 1.0);
  for (size_t t = 0; t < dst.size(); ++t) {
    const uint64_t i = first + t;
    const uint64_t j = i / 2;
    const simd::philox::Block x = simd::philox::Philox4x32_10(
        {{static_cast<uint32_t>(j), static_cast<uint32_t>(j >> 32),
          static_cast<uint32_t>(stream), static_cast<uint32_t>(stream >> 32)}},
        key);
    double z_even = 0.0, z_odd = 0.0;
    simd::philox::GaussianPairFromBits(x, &z_even, &z_odd);
    EXPECT_EQ(Bits(dst[t]), Bits(i % 2 == 0 ? z_even : z_odd)) << "t=" << t;
  }
}

TEST(GaussianAccumulateTest, BitIdenticalAcrossLevels) {
  LevelGuard guard;
  const auto levels = SupportedLevels();
  Rng rng(41);
  // An odd offset into the buffer keeps dst off every vector alignment.
  // n up to 200 covers the 64-draw iterations, their 16-draw remainder and
  // the tail at every offset.
  std::vector<double> init(1 + 200);
  for (double& x : init) x = rng.Uniform(-3.0, 3.0);
  for (uint64_t first : {uint64_t{0}, uint64_t{1}, uint64_t{6}, uint64_t{13},
                         (uint64_t{1} << 32) - 1, (uint64_t{1} << 40) + 2}) {
    for (size_t n = 0; n <= 200; ++n) {
      simd::SetLevel(simd::Level::kScalar);
      std::vector<double> want = init;
      kernels::GaussianAccumulate(7, 1, first, want.data() + 1, n, -0.75);
      for (simd::Level level : levels) {
        simd::SetLevel(level);
        std::vector<double> got = init;
        kernels::GaussianAccumulate(7, 1, first, got.data() + 1, n, -0.75);
        for (size_t t = 0; t < got.size(); ++t) {
          ASSERT_EQ(Bits(got[t]), Bits(want[t]))
              << simd::LevelName(level) << " first=" << first << " n=" << n
              << " t=" << t;
        }
      }
    }
  }
}

// Counter-based: a fill split at any point, in either order, is one fill.
TEST(GaussianAccumulateTest, SplitAtEveryPointEqualsOneFill) {
  LevelGuard guard;
  const size_t n = 133;  // two 64-draw iterations and a tail
  for (simd::Level level : SupportedLevels()) {
    simd::SetLevel(level);
    std::vector<double> whole(n, 0.5);
    kernels::GaussianAccumulate(99, 0, 5, whole.data(), n, 2.0);
    for (size_t cut = 0; cut <= n; ++cut) {
      std::vector<double> split(n, 0.5);
      kernels::GaussianAccumulate(99, 0, 5 + cut, split.data() + cut, n - cut,
                                  2.0);
      kernels::GaussianAccumulate(99, 0, 5, split.data(), cut, 2.0);
      for (size_t t = 0; t < n; ++t) {
        ASSERT_EQ(Bits(split[t]), Bits(whole[t]))
            << simd::LevelName(level) << " cut=" << cut << " t=" << t;
      }
    }
  }
}

TEST(GaussianAccumulateTest, KeyAndStreamSelectIndependentSequences) {
  std::vector<double> a(64, 0.0), b(64, 0.0), c(64, 0.0);
  kernels::GaussianAccumulate(1, 0, 0, a.data(), a.size(), 1.0);
  kernels::GaussianAccumulate(1, 1, 0, b.data(), b.size(), 1.0);
  kernels::GaussianAccumulate(2, 0, 0, c.data(), c.size(), 1.0);
  size_t same_ab = 0, same_ac = 0;
  for (size_t t = 0; t < a.size(); ++t) {
    same_ab += a[t] == b[t];
    same_ac += a[t] == c[t];
  }
  EXPECT_EQ(same_ab, 0u);
  EXPECT_EQ(same_ac, 0u);
}

// Accuracy of the reference against long-double libm at the same (u1, u2):
// u1 in every binade from 2^-65 up to 1, u2 on a dense grid plus the
// quadrant and rounding boundaries of the angle reduction.
constexpr double kMaxUlp = 4.0;  // the bound stated in linalg/kernels.h

struct PairError {
  double max_ulp = 0.0;
  double max_abs_z = 0.0;
};

void CheckPair(uint32_t hi, uint32_t lo, uint64_t angle, PairError* err) {
  const simd::philox::Block x = {{hi, lo, static_cast<uint32_t>(angle >> 20),
                                  static_cast<uint32_t>(angle << 12)}};
  double z[2];
  simd::philox::GaussianPairFromBits(x, &z[0], &z[1]);

  // The definition: u1 = (x0 + (x1 + 1/2)·2^-32)·2^-32, θ = 2π·K·2^-52.
  const double u1 = std::fma(static_cast<double>(lo) + 0.5, 0x1p-32,
                             static_cast<double>(hi)) *
                    0x1p-32;
  const long double r =
      std::sqrt(-2.0L * std::log(static_cast<long double>(u1)));
  // 4·u2 = quadrant + t exactly; both references are long double.
  const uint64_t rounded = angle + (uint64_t{1} << 49);
  const uint64_t quadrant = (rounded >> 50) & 3;
  const int64_t rem =
      static_cast<int64_t>(rounded & ((uint64_t{1} << 50) - 1)) -
      (int64_t{1} << 49);
  const long double t = static_cast<long double>(rem) * 0x1p-50L;
  const long double phi = 1.57079632679489661923132169163975144L * t;
  const long double c = std::cos(phi), s = std::sin(phi);
  const long double cos_theta[4] = {c, -s, -c, s};
  const long double sin_theta[4] = {s, c, -s, -c};
  const long double want[2] = {r * cos_theta[quadrant],
                               r * sin_theta[quadrant]};
  for (int h = 0; h < 2; ++h) {
    err->max_abs_z = std::max(err->max_abs_z, std::fabs(z[h]));
    if (want[h] == 0.0L) {
      EXPECT_EQ(z[h], 0.0) << "hi=" << hi << " lo=" << lo << " K=" << angle;
      continue;
    }
    int exp = 0;
    std::frexp(want[h], &exp);  // |want| ∈ [2^(exp-1), 2^exp)
    const long double ulp = std::ldexp(1.0L, exp - 53);
    const double e = static_cast<double>(std::fabs(z[h] - want[h]) / ulp);
    if (e > err->max_ulp) err->max_ulp = e;
    EXPECT_LE(e, kMaxUlp) << "hi=" << hi << " lo=" << lo << " K=" << angle
                          << " half=" << h;
  }
}

TEST(GaussianAccumulateTest, WithinStatedUlpOfLongDoubleLibm) {
  Rng rng(43);
  PairError err;
  const uint64_t k52 = uint64_t{1} << 52;
  const auto random_angle = [&] { return rng.Next() >> 12; };
  // Every binade [2^b, 2^(b+1)) of u1, b = -65 .. -1, then u1 = 1 itself.
  for (int b = -65; b <= -1; ++b) {
    for (int sample = 0; sample < 256; ++sample) {
      uint32_t hi = 0, lo = 0;
      if (b >= -32) {  // hi ∈ [2^(b+32), 2^(b+33))
        const uint64_t base = uint64_t{1} << (b + 32);
        hi = static_cast<uint32_t>(base + rng.UniformInt(base));
        lo = static_cast<uint32_t>(rng.Next());
      } else if (b >= -64) {  // hi = 0, lo + 1/2 ∈ [2^(b+64), 2^(b+65))
        const uint64_t base = uint64_t{1} << (b + 64);
        lo = static_cast<uint32_t>(base + rng.UniformInt(base));
      }  // b = -65: hi = lo = 0, u1 = 2^-65
      if (sample == 1 && b >= -32) lo = 0;  // binade endpoints
      if (sample == 2 && b >= -32) lo = 0xffffffff;
      for (int a = 0; a < 16; ++a) CheckPair(hi, lo, random_angle(), &err);
    }
  }
  CheckPair(0xffffffff, 0xffffffff, random_angle(), &err);  // u1 rounds to 1
  // Dense angle grid, plus both sides of every quadrant boundary and of the
  // rounding point between quadrants.
  for (uint64_t k = 0; k < (uint64_t{1} << 16); ++k) {
    const uint32_t hi = static_cast<uint32_t>(rng.Next());
    const uint32_t lo = static_cast<uint32_t>(rng.Next());
    CheckPair(hi, lo, (k << 36) | (rng.Next() >> 28), &err);
  }
  for (uint64_t q = 0; q < 4; ++q) {
    for (uint64_t edge : {q << 50, (q << 50) + (uint64_t{1} << 49)}) {
      for (int64_t delta = -3; delta <= 3; ++delta) {
        const uint64_t angle =
            (edge + k52 + static_cast<uint64_t>(delta)) % k52;
        CheckPair(0x80000000u, 12345, angle, &err);
      }
    }
  }
  EXPECT_LE(err.max_ulp, kMaxUlp);
  // sepriv-privflow: allow(leak): accuracy summary of the noise kernel over synthetic Philox words; no graph data reaches it
  std::printf("max error %.3f ulp, max |Z| %.6f\n", err.max_ulp, err.max_abs_z);
  // The Box–Muller ceiling: u1 ≥ 2^-65 bounds |Z| by sqrt(130 ln 2).
  EXPECT_LE(err.max_abs_z, 9.4925830769497557);
}

TEST(KernelsTest, GemmMatchesNaiveAcrossShapes) {
  Rng rng(31);
  const size_t shapes[][3] = {{1, 1, 1},   {2, 3, 2},   {4, 4, 4},
                              {5, 7, 3},   {17, 9, 23}, {64, 64, 64},
                              {65, 33, 67}, {130, 40, 129}};
  for (const auto& s : shapes) {
    Matrix a(s[0], s[1]), b(s[1], s[2]);
    a.FillUniform(rng, -1.0, 1.0);
    b.FillUniform(rng, -1.0, 1.0);
    const Matrix c = MatMul(a, b);
    const Matrix ref = naive::MatMul(a, b);
    EXPECT_LT(MaxAbsDiff(c, ref),
              1e-12 * static_cast<double>(s[1]))
        << s[0] << "x" << s[1] << "x" << s[2];
  }
}

TEST(KernelsTest, GemmShapeEdgeCases) {
  // 0xN, Nx0, and inner-dimension-0 products must all be well-defined.
  Matrix a0(0, 3), b(3, 4);
  const Matrix c0 = MatMul(a0, b);
  EXPECT_EQ(c0.rows(), 0u);
  EXPECT_EQ(c0.cols(), 4u);

  Matrix a(2, 0), bk0(0, 3);
  const Matrix ck0 = MatMul(a, bk0);
  EXPECT_EQ(ck0.rows(), 2u);
  EXPECT_EQ(ck0.cols(), 3u);
  EXPECT_EQ(ck0.FrobeniusNorm(), 0.0);

  Matrix one(1, 1, 3.0), two(1, 1, -4.0);
  EXPECT_EQ(MatMul(one, two)(0, 0), -12.0);

  Rng rng(32);
  Matrix m(9, 9);
  m.FillUniform(rng, -1.0, 1.0);
  Matrix eye(9, 9);
  for (size_t i = 0; i < 9; ++i) eye(i, i) = 1.0;
  EXPECT_LT(MaxAbsDiff(MatMul(m, eye), m), 1e-14);
  EXPECT_LT(MaxAbsDiff(MatMul(eye, m), m), 1e-14);
}

TEST(KernelsTest, GemmVariantsMatchTransposeCompositions) {
  Rng rng(33);
  Matrix a(37, 21), b(37, 18);   // MatTMul: (21x37)·(37x18)
  a.FillUniform(rng, -1.0, 1.0);
  b.FillUniform(rng, -1.0, 1.0);
  EXPECT_LT(MaxAbsDiff(MatTMul(a, b), naive::MatMul(Transpose(a), b)), 1e-11);

  Matrix c(29, 21), d(35, 21);   // MatMulT: (29x21)·(21x35)
  c.FillUniform(rng, -1.0, 1.0);
  d.FillUniform(rng, -1.0, 1.0);
  EXPECT_LT(MaxAbsDiff(MatMulT(c, d), naive::MatMul(c, Transpose(d))), 1e-11);
}

TEST(KernelsTest, GemmBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  Rng rng(34);
  // Big enough to clear the parallel floor and span many tiles.
  Matrix a(150, 130, 0.0), b(130, 170, 0.0);
  a.FillUniform(rng, -1.0, 1.0);
  b.FillUniform(rng, -1.0, 1.0);

  kernels::SetLinalgThreads(1);
  const Matrix serial = MatMul(a, b);
  const uint64_t want = MatrixDigest(serial);
  for (size_t threads : {2u, 4u, 8u}) {
    kernels::SetLinalgThreads(threads);
    EXPECT_EQ(MatrixDigest(MatMul(a, b)), want) << "threads=" << threads;
  }
}

TEST(KernelsTest, GemmVariantsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  Rng rng(35);
  Matrix a(140, 150, 0.0), b(140, 160, 0.0);
  a.FillUniform(rng, -1.0, 1.0);
  b.FillUniform(rng, -1.0, 1.0);
  kernels::SetLinalgThreads(1);
  const uint64_t tn = MatrixDigest(MatTMul(a, b));
  const uint64_t nt = MatrixDigest(MatMulT(Transpose(a), Transpose(b)));
  for (size_t threads : {2u, 8u}) {
    kernels::SetLinalgThreads(threads);
    EXPECT_EQ(MatrixDigest(MatTMul(a, b)), tn) << threads;
    EXPECT_EQ(MatrixDigest(MatMulT(Transpose(a), Transpose(b))), nt) << threads;
  }
}

TEST(KernelsTest, NormalizedAdjacencyMultiplyThreadInvariant) {
  ThreadGuard guard;
  const Graph g = BarabasiAlbert(2000, 5, 7);
  NormalizedAdjacency a_hat(g, /*include_self_loops=*/true);
  Rng rng(36);
  Matrix x(g.num_nodes(), 16);
  x.FillUniform(rng, -1.0, 1.0);

  kernels::SetLinalgThreads(1);
  const uint64_t want = MatrixDigest(a_hat.Multiply(x));
  for (size_t threads : {2u, 4u, 8u}) {
    kernels::SetLinalgThreads(threads);
    EXPECT_EQ(MatrixDigest(a_hat.Multiply(x)), want) << "threads=" << threads;
  }
}

TEST(KernelsTest, ParallelTasksRunsEveryIndexOnce) {
  ThreadGuard guard;
  kernels::SetLinalgThreads(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  kernels::ParallelTasks(hits.size(),
                         [&](size_t t) { hits[t].fetch_add(1); });
  for (size_t t = 0; t < hits.size(); ++t) {
    EXPECT_EQ(hits[t].load(), 1) << "t=" << t;
  }
}

TEST(KernelsTest, ParallelTasksNestedFallsBackSerially) {
  ThreadGuard guard;
  kernels::SetLinalgThreads(4);
  std::atomic<int> total{0};
  kernels::ParallelTasks(8, [&](size_t) {
    // Nested parallel kernels must not deadlock the shared pool.
    kernels::ParallelTasks(4, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(KernelsTest, ThreadKnobResolves) {
  ThreadGuard guard;
  kernels::SetLinalgThreads(3);
  EXPECT_EQ(kernels::LinalgThreads(), 3u);
  kernels::SetLinalgThreads(0);
  EXPECT_GE(kernels::LinalgThreads(), 1u);
}

TEST(KernelsTest, LinalgThreadsReadableFromInsideTask) {
  // Row-sharded callers may size scratch by thread count from inside a
  // task; the accessor must not touch the pool mutex the dispatcher holds.
  ThreadGuard guard;
  kernels::SetLinalgThreads(4);
  std::atomic<size_t> seen{0};
  kernels::ParallelTasks(16, [&](size_t) {
    seen.store(kernels::LinalgThreads());
  });
  EXPECT_EQ(seen.load(), 4u);
}

}  // namespace
}  // namespace sepriv
