#include "dp/gaussian_mechanism.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace sepriv {
namespace {

TEST(GaussianMechanismTest, ZeroStddevIsIdentity) {
  std::vector<double> v = {1.0, 2.0, 3.0};
  Rng rng(1);
  // sepriv-privflow: allow(unaccounted-sanitizer): unit test exercises the mechanism primitive directly; no privacy claim on its output
  AddGaussianNoise(v, 0.0, rng);
  EXPECT_EQ(v[0], 1.0);
  EXPECT_EQ(v[2], 3.0);
}

TEST(GaussianMechanismTest, NoiseMomentsMatch) {
  const size_t n = 100000;
  std::vector<double> v(n, 0.0);
  Rng rng(2);
  // sepriv-privflow: allow(unaccounted-sanitizer): unit test exercises the mechanism primitive directly; no privacy claim on its output
  AddGaussianNoise(v, 3.0, rng);
  double sum = 0.0, sumsq = 0.0;
  for (double x : v) {
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 9.0, 0.2);
}

TEST(GaussianMechanismTest, AllRowsPerturbed) {
  Matrix m(6, 3);
  Rng rng(4);
  // sepriv-privflow: allow(unaccounted-sanitizer): unit test exercises the mechanism primitive directly; no privacy claim on its output
  AddGaussianNoiseToAllRows(m, 1.0, rng);
  for (size_t r = 0; r < m.rows(); ++r) EXPECT_GT(m.RowNorm(r), 0.0);
}

TEST(GaussianMechanismTest, StddevStruct) {
  GaussianMechanism mech{2.0, 5.0};  // sensitivity 2, multiplier 5
  EXPECT_DOUBLE_EQ(mech.Stddev(), 10.0);
  // RDP is independent of sensitivity (it cancels): α/(2σ²).
  EXPECT_DOUBLE_EQ(mech.Rdp(4.0), 4.0 / 50.0);
}

TEST(GaussianMechanismTest, DeterministicGivenSeed) {
  std::vector<double> a = {0.0, 0.0}, b = {0.0, 0.0};
  Rng r1(9), r2(9);
  // sepriv-privflow: allow(unaccounted-sanitizer): unit test exercises the mechanism primitive directly; no privacy claim on its output
  AddGaussianNoise(a, 1.0, r1);
  AddGaussianNoise(b, 1.0, r2);
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a[1], b[1]);
}

TEST(GaussianMechanismDeathTest, NegativeStddevAborts) {
  std::vector<double> v = {1.0};
  Rng rng(1);
  // sepriv-privflow: allow(unaccounted-sanitizer): unit test exercises the mechanism primitive directly; no privacy claim on its output
  EXPECT_DEATH(AddGaussianNoise(v, -1.0, rng), "non-negative");
}

// Non-positive sensitivity or σ silently zeroes the noise while the
// accountant keeps reporting a finite ε — a privacy claim with no mechanism
// behind it. Both must abort at the mechanism boundary.
TEST(GaussianMechanismDeathTest, NonPositiveSensitivityAborts) {
  GaussianMechanism mech;
  mech.sensitivity = 0.0;
  EXPECT_DEATH(mech.Stddev(), "sensitivity must be positive");
  mech.sensitivity = -1.0;
  EXPECT_DEATH(mech.Stddev(), "sensitivity must be positive");
}

TEST(GaussianMechanismDeathTest, NonPositiveNoiseMultiplierAborts) {
  GaussianMechanism mech;
  mech.noise_multiplier = 0.0;
  EXPECT_DEATH(mech.Stddev(), "noise multiplier must be positive");
  EXPECT_DEATH(mech.Rdp(4.0), "noise multiplier must be positive");
  mech.noise_multiplier = -2.0;
  EXPECT_DEATH(mech.Stddev(), "noise multiplier must be positive");
  EXPECT_DEATH(mech.Rdp(4.0), "noise multiplier must be positive");
}

}  // namespace
}  // namespace sepriv
