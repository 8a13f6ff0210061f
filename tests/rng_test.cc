#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace sepriv {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, ReseedResetsStream) {
  Rng a(7);
  const uint64_t first = a.Next();
  a.Next();
  a.Seed(7);
  EXPECT_EQ(a.Next(), first);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 2.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 2.0);
  }
}

TEST(RngTest, UniformMeanApproximatelyHalf) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) acc += rng.Uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.005);
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng rng(9);
  for (uint64_t n : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.UniformInt(n), n);
    }
  }
}

TEST(RngTest, UniformIntCoversSupport) {
  Rng rng(10);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformIntApproximatelyUniform) {
  Rng rng(20);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(8)];
  for (int c : counts) EXPECT_NEAR(c, n / 8, 0.08 * n / 8);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sumsq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(RngTest, NormalScaledMoments) {
  Rng rng(17);
  double sum = 0.0, sumsq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(3.0, 2.0);
    sum += x;
    sumsq += (x - 3.0) * (x - 3.0);
  }
  EXPECT_NEAR(sum / n, 3.0, 0.05);
  EXPECT_NEAR(sumsq / n, 4.0, 0.1);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(21);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(22);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ReseedClearsBoxMullerCache) {
  // Box–Muller produces two normals per pair of uniforms and caches the
  // second. An odd number of Normal() draws before Seed() used to leave the
  // cache populated, so the first post-reseed Normal() came from the OLD
  // stream. A reseeded engine must be indistinguishable from a fresh one.
  Rng fresh(7);
  std::vector<double> expected;
  for (int i = 0; i < 5; ++i) expected.push_back(fresh.Normal());

  Rng reseeded(99);
  reseeded.Normal();  // odd draw count -> cache holds a stale second value
  reseeded.Seed(7);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(reseeded.Normal(), expected[i]);
}

TEST(RngTest, ReseedDeterminismAcrossMixedDrawCounts) {
  // Regression companion: whatever mixture of draws happened before Seed(),
  // the post-reseed stream is a function of the seed alone.
  Rng a(1), b(2);
  a.Normal();
  a.Normal();
  a.Normal();
  b.Uniform();
  a.Seed(123);
  b.Seed(123);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.Normal(), b.Normal());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, KeyedForkIsDeterministicAndDoesNotAdvanceParent) {
  Rng parent(55);
  const Rng snapshot = parent;  // value semantics: capture the state
  Rng child_a = parent.Fork(17);
  Rng child_b = parent.Fork(17);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child_a.Next(), child_b.Next());
  // The keyed overload is const: the parent stream is untouched.
  Rng parent_copy = snapshot;
  for (int i = 0; i < 32; ++i) EXPECT_EQ(parent.Next(), parent_copy.Next());
}

TEST(RngTest, KeyedForkStreamsAreDistinct) {
  Rng parent(56);
  Rng a = parent.Fork(0);
  Rng b = parent.Fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, SplitMix64KnownSequenceIsDeterministic) {
  uint64_t s1 = 42, s2 = 42;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(SplitMix64(s1), SplitMix64(s2));
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~0ULL);
  Rng rng(1);
  EXPECT_NE(rng(), rng());
}

// Advance(n) is n calls to Next(): the state and the draws that follow are
// equal, across the word and polynomial-degree boundaries of the jump.
TEST(RngAdvanceTest, MatchesSequentialNext) {
  for (uint64_t n : {0ULL, 1ULL, 2ULL, 63ULL, 64ULL, 255ULL, 256ULL, 257ULL,
                     1000003ULL}) {
    Rng jumped(0xabcdef + n), stepped(0xabcdef + n);
    jumped.Advance(n);
    for (uint64_t i = 0; i < n; ++i) stepped.Next();
    const Rng::State a = jumped.SaveState(), b = stepped.SaveState();
    for (int w = 0; w < 4; ++w) EXPECT_EQ(a.s[w], b.s[w]) << "n=" << n;
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(jumped.Next(), stepped.Next()) << "n=" << n << " draw " << i;
    }
  }
}

TEST(RngAdvanceTest, JumpsCompose) {
  const uint64_t a = (1ULL << 40) + 12345, b = (1ULL << 33) + 7;
  Rng split(31), whole(31);
  split.Advance(a);
  split.Advance(b);
  whole.Advance(a + b);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(split.Next(), whole.Next());
}

TEST(RngAdvanceTest, KeepsPendingBoxMullerValue) {
  Rng jumped(77);
  jumped.Normal();  // leaves the sin half of the pair cached
  Rng stepped = jumped;
  jumped.Advance(1000);
  for (int i = 0; i < 1000; ++i) stepped.Next();
  double cached = 0.0, want = 0.0;
  ASSERT_TRUE(jumped.TakeCachedNormal(cached));
  ASSERT_TRUE(stepped.TakeCachedNormal(want));
  EXPECT_EQ(cached, want);
  EXPECT_EQ(jumped.Normal(), stepped.Normal());
}

}  // namespace
}  // namespace sepriv
