#include "util/alias_table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.h"

namespace sepriv {
namespace {

std::vector<double> EmpiricalFrequencies(const AliasTable& table, int draws,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<double> freq(table.size(), 0.0);
  for (int i = 0; i < draws; ++i) freq[table.Sample(rng)] += 1.0;
  for (double& f : freq) f /= draws;
  return freq;
}

TEST(AliasTableTest, SingleBucketAlwaysSampled) {
  AliasTable t({5.0});
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(t.Sample(rng), 0u);
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  AliasTable t({1.0, 0.0, 1.0});
  Rng rng(2);
  for (int i = 0; i < 5000; ++i) EXPECT_NE(t.Sample(rng), 1u);
}

TEST(AliasTableTest, MassMatchesNormalizedWeights) {
  AliasTable t({1.0, 3.0, 6.0});
  EXPECT_NEAR(t.Mass(0), 0.1, 1e-12);
  EXPECT_NEAR(t.Mass(1), 0.3, 1e-12);
  EXPECT_NEAR(t.Mass(2), 0.6, 1e-12);
}

TEST(AliasTableTest, UniformWeightsSampleUniformly) {
  AliasTable t(std::vector<double>(10, 2.5));
  const auto freq = EmpiricalFrequencies(t, 100000, 3);
  for (double f : freq) EXPECT_NEAR(f, 0.1, 0.01);
}

struct WeightCase {
  const char* name;
  std::vector<double> weights;
};

// Without this, GoogleTest prints the param as raw bytes, which include the
// address of `name` and the vector's heap pointers; CTest discovery copies
// that dump into the test name, so the name changed from build to build.
void PrintTo(const WeightCase& c, std::ostream* os) { *os << c.name; }

class AliasDistributionTest : public ::testing::TestWithParam<WeightCase> {};

TEST_P(AliasDistributionTest, EmpiricalMatchesExpected) {
  const auto& w = GetParam().weights;
  AliasTable t(w);
  double total = 0.0;
  for (double x : w) total += x;
  const auto freq = EmpiricalFrequencies(t, 200000, 7);
  for (size_t i = 0; i < w.size(); ++i) {
    const double expect = w[i] / total;
    EXPECT_NEAR(freq[i], expect, 0.015 + 0.05 * expect)
        << GetParam().name << " bucket " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WeightProfiles, AliasDistributionTest,
    ::testing::Values(
        WeightCase{"two_to_one", {2.0, 1.0}},
        WeightCase{"skewed", {100.0, 1.0, 1.0, 1.0}},
        WeightCase{"geometric", {1, 2, 4, 8, 16, 32}},
        WeightCase{"with_zeros", {0.0, 5.0, 0.0, 5.0, 10.0}},
        WeightCase{"tiny_values", {1e-9, 2e-9, 3e-9}},
        WeightCase{"power_law", {1.0, 0.5, 0.33, 0.25, 0.2, 0.17, 0.14}}),
    [](const auto& info) { return info.param.name; });

TEST(AliasTableTest, LargeTableStillExact) {
  std::vector<double> w(1000);
  for (size_t i = 0; i < w.size(); ++i) w[i] = static_cast<double>(i % 7 + 1);
  AliasTable t(w);
  // Verify Kahan-free probability bookkeeping: masses sum to 1.
  double mass = 0.0;
  for (uint32_t i = 0; i < 1000; ++i) mass += t.Mass(i);
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

TEST(AliasTableDeathTest, RejectsEmptyAndNegative) {
  EXPECT_DEATH(AliasTable(std::vector<double>{}), "at least one");
  EXPECT_DEATH(AliasTable({1.0, -0.5}), "non-negative");
  EXPECT_DEATH(AliasTable({0.0, 0.0}), "all be zero");
}

TEST(AliasTableTest, RebuildReplacesDistribution) {
  AliasTable t({1.0, 0.0});
  t.Build({0.0, 1.0});
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(t.Sample(rng), 1u);
}

}  // namespace
}  // namespace sepriv
