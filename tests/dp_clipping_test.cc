#include "dp/clipping.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "util/math_util.h"
#include "util/rng.h"

namespace sepriv {
namespace {

TEST(ClippingTest, BelowThresholdUntouched) {
  std::vector<double> g = {0.3, 0.4};  // norm 0.5
  // sepriv-privflow: allow(unaccounted-sanitizer): unit test exercises the mechanism primitive directly; no privacy claim on its output
  const double scale = ClipL2InPlace(g, 1.0);
  EXPECT_DOUBLE_EQ(scale, 1.0);
  EXPECT_DOUBLE_EQ(g[0], 0.3);
  EXPECT_DOUBLE_EQ(g[1], 0.4);
}

TEST(ClippingTest, AboveThresholdScaledToExactlyC) {
  std::vector<double> g = {3.0, 4.0};  // norm 5
  // sepriv-privflow: allow(unaccounted-sanitizer): unit test exercises the mechanism primitive directly; no privacy claim on its output
  const double scale = ClipL2InPlace(g, 1.0);
  EXPECT_DOUBLE_EQ(scale, 0.2);
  EXPECT_NEAR(Norm(g.data(), g.size()), 1.0, 1e-12);
  // Direction preserved.
  EXPECT_NEAR(g[0] / g[1], 0.75, 1e-12);
}

TEST(ClippingTest, ExactlyAtThresholdUntouched) {
  std::vector<double> g = {1.0, 0.0};
  // sepriv-privflow: allow(unaccounted-sanitizer): unit test exercises the mechanism primitive directly; no privacy claim on its output
  EXPECT_DOUBLE_EQ(ClipL2InPlace(g, 1.0), 1.0);
}

TEST(ClippingTest, ZeroGradientStaysZero) {
  std::vector<double> g = {0.0, 0.0, 0.0};
  // sepriv-privflow: allow(unaccounted-sanitizer): unit test exercises the mechanism primitive directly; no privacy claim on its output
  EXPECT_DOUBLE_EQ(ClipL2InPlace(g, 2.0), 1.0);
  for (double x : g) EXPECT_EQ(x, 0.0);
}

TEST(ClippingTest, ScaleFormula) {
  EXPECT_DOUBLE_EQ(ClipScale(10.0, 2.0), 0.2);
  EXPECT_DOUBLE_EQ(ClipScale(1.0, 2.0), 1.0);
}

TEST(ClippingDeathTest, NonPositiveThresholdAborts) {
  std::vector<double> g = {1.0};
  // sepriv-privflow: allow(unaccounted-sanitizer): unit test exercises the mechanism primitive directly; no privacy claim on its output
  EXPECT_DEATH(ClipL2InPlace(g, 0.0), "positive");
  EXPECT_DEATH(ClipScale(1.0, -1.0), "positive");
}

class ClippingInvariantTest : public ::testing::TestWithParam<double> {};

TEST_P(ClippingInvariantTest, RandomGradientsNeverExceedC) {
  const double c = GetParam();
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> g(16);
    for (double& x : g) x = rng.Normal(0.0, 5.0);
    // sepriv-privflow: allow(unaccounted-sanitizer): unit test exercises the mechanism primitive directly; no privacy claim on its output
    ClipL2InPlace(g, c);
    EXPECT_LE(Norm(g.data(), g.size()), c * (1.0 + 1e-12));
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ClippingInvariantTest,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0, 6.0),
                         [](const auto& info) {
                           return std::string("C").append(std::to_string(
                               static_cast<int>(info.param * 10)));
                         });

}  // namespace
}  // namespace sepriv
