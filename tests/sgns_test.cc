#include "embedding/sgns.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/batch_gradient_engine.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace sepriv {
namespace {

Subgraph MakeSubgraph(NodeId center, NodeId context,
                      std::vector<NodeId> negs) {
  Subgraph s;
  s.center = center;
  s.context = context;
  s.negatives = std::move(negs);
  return s;
}

TEST(SgnsTest, LossAtZeroEmbeddingsIsLog2PerTerm) {
  Rng rng(1);
  SkipGramModel model(5, 4, rng);
  model.w_in.SetZero();
  model.w_out.SetZero();
  const Subgraph s = MakeSubgraph(0, 1, {2, 3});
  // Each of the 3 terms contributes -log σ(0) = log 2, weights 1.
  EXPECT_NEAR(SgnsLoss(model, s, 1.0, 1.0), 3.0 * std::log(2.0), 1e-12);
}

TEST(SgnsTest, LossScalesLinearlyInWeights) {
  Rng rng(2);
  SkipGramModel model(6, 8, rng);
  const Subgraph s = MakeSubgraph(0, 3, {1, 4, 5});
  const double base = SgnsLoss(model, s, 1.0, 1.0);
  const double pos_only = SgnsLoss(model, s, 1.0, 0.0);
  const double neg_only = SgnsLoss(model, s, 0.0, 1.0);
  EXPECT_NEAR(pos_only + neg_only, base, 1e-12);
  EXPECT_NEAR(SgnsLoss(model, s, 2.5, 2.5), 2.5 * base, 1e-12);
}

TEST(SgnsTest, GradientTouchesOnlyExpectedRows) {
  Rng rng(3);
  SkipGramModel model(10, 4, rng);
  const Subgraph s = MakeSubgraph(2, 7, {1, 9});
  const SgnsGradient g = ComputeSgnsGradient(model, s, 0.8, 0.3);
  EXPECT_EQ(g.center, 2u);
  ASSERT_EQ(g.context_grads.size(), 3u);  // positive + 2 negatives
  EXPECT_EQ(g.context_grads[0].first, 7u);
  EXPECT_EQ(g.context_grads[1].first, 1u);
  EXPECT_EQ(g.context_grads[2].first, 9u);
}

TEST(SgnsTest, GradientLossMatchesLossFunction) {
  Rng rng(4);
  SkipGramModel model(8, 6, rng);
  const Subgraph s = MakeSubgraph(1, 5, {0, 2, 7});
  const SgnsGradient g = ComputeSgnsGradient(model, s, 1.3, 0.4);
  EXPECT_NEAR(g.loss, SgnsLoss(model, s, 1.3, 0.4), 1e-12);
}

// Finite-difference check of Eq. (7): ∂L/∂v_i (the center row of Win).
TEST(SgnsTest, CenterGradientMatchesFiniteDifference) {
  Rng rng(5);
  SkipGramModel model(8, 5, rng);
  model.w_in.FillGaussian(rng, 0.0, 0.5);
  model.w_out.FillGaussian(rng, 0.0, 0.5);
  const Subgraph s = MakeSubgraph(3, 6, {0, 1, 7});
  const double w_pos = 0.9, w_neg = 0.35;
  const SgnsGradient g = ComputeSgnsGradient(model, s, w_pos, w_neg);
  const double h = 1e-6;
  for (size_t d = 0; d < model.dim(); ++d) {
    const double orig = model.w_in(3, d);
    model.w_in(3, d) = orig + h;
    const double up = SgnsLoss(model, s, w_pos, w_neg);
    model.w_in(3, d) = orig - h;
    const double down = SgnsLoss(model, s, w_pos, w_neg);
    model.w_in(3, d) = orig;
    EXPECT_NEAR(g.center_grad[d], (up - down) / (2.0 * h), 1e-5);
  }
}

// Finite-difference check of Eq. (8): ∂L/∂v_n for each touched Wout row.
TEST(SgnsTest, ContextGradientsMatchFiniteDifference) {
  Rng rng(6);
  SkipGramModel model(9, 4, rng);
  model.w_in.FillGaussian(rng, 0.0, 0.5);
  model.w_out.FillGaussian(rng, 0.0, 0.5);
  const Subgraph s = MakeSubgraph(0, 4, {2, 8});
  const double w_pos = 1.1, w_neg = 0.6;
  const SgnsGradient g = ComputeSgnsGradient(model, s, w_pos, w_neg);
  const double h = 1e-6;
  for (const auto& [row, grad] : g.context_grads) {
    for (size_t d = 0; d < model.dim(); ++d) {
      const double orig = model.w_out(row, d);
      model.w_out(row, d) = orig + h;
      const double up = SgnsLoss(model, s, w_pos, w_neg);
      model.w_out(row, d) = orig - h;
      const double down = SgnsLoss(model, s, w_pos, w_neg);
      model.w_out(row, d) = orig;
      EXPECT_NEAR(grad[d], (up - down) / (2.0 * h), 1e-5)
          << "row " << row << " dim " << d;
    }
  }
}

struct GradCheckCase {
  const char* name;
  int dim;
  int negatives;
  double w_pos, w_neg;
};

// Without this, GoogleTest prints the param as raw bytes, which include the
// address of `name`; CTest discovery copies that dump into the test name, so
// the name changed with the build layout.
void PrintTo(const GradCheckCase& c, std::ostream* os) { *os << c.name; }

class SgnsGradCheckTest : public ::testing::TestWithParam<GradCheckCase> {};

TEST_P(SgnsGradCheckTest, JointGradientMatchesFiniteDifference) {
  const auto& c = GetParam();
  Rng rng(7 + c.dim);
  SkipGramModel model(12, c.dim, rng);
  model.w_in.FillGaussian(rng, 0.0, 0.8);
  model.w_out.FillGaussian(rng, 0.0, 0.8);
  std::vector<NodeId> negs;
  for (int k = 0; k < c.negatives; ++k)
    negs.push_back(static_cast<NodeId>((5 + 2 * k) % 12));
  const Subgraph s = MakeSubgraph(1, 3, negs);
  const SgnsGradient g = ComputeSgnsGradient(model, s, c.w_pos, c.w_neg);
  const double h = 1e-6;
  // Spot-check the first coordinate of every touched row.
  {
    const double orig = model.w_in(1, 0);
    model.w_in(1, 0) = orig + h;
    const double up = SgnsLoss(model, s, c.w_pos, c.w_neg);
    model.w_in(1, 0) = orig - h;
    const double dn = SgnsLoss(model, s, c.w_pos, c.w_neg);
    model.w_in(1, 0) = orig;
    EXPECT_NEAR(g.center_grad[0], (up - dn) / (2.0 * h), 1e-5);
  }
  for (const auto& [row, grad] : g.context_grads) {
    const double orig = model.w_out(row, 0);
    model.w_out(row, 0) = orig + h;
    const double up = SgnsLoss(model, s, c.w_pos, c.w_neg);
    model.w_out(row, 0) = orig - h;
    const double dn = SgnsLoss(model, s, c.w_pos, c.w_neg);
    model.w_out(row, 0) = orig;
    // Duplicate negatives split the gradient across entries; accumulate.
    double total = 0.0;
    for (const auto& [r2, g2] : g.context_grads) {
      if (r2 == row) total += g2[0];
    }
    EXPECT_NEAR(total, (up - dn) / (2.0 * h), 1e-5) << "row " << row;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SgnsGradCheckTest,
    ::testing::Values(GradCheckCase{"k1", 4, 1, 1.0, 1.0},
                      GradCheckCase{"k5", 8, 5, 0.7, 0.2},
                      GradCheckCase{"k7_smallw", 16, 7, 0.05, 0.001},
                      GradCheckCase{"dup_negs", 6, 4, 1.0, 0.5},
                      GradCheckCase{"unit_dim", 1, 3, 0.9, 0.4}),
    [](const auto& info) { return info.param.name; });

/// One hand-built sample as the engine's whole source, at p_ij = 1, so
/// w_pos = w_neg = 1 under kPaperPij.
class OneSampleSource final : public SampleSource {
 public:
  explicit OneSampleSource(const Subgraph& s) : s_(s) {}
  size_t size() const override { return 1; }
  size_t NegativesCount(uint32_t /*idx*/) const override {
    return s_.negatives.size();
  }
  SampleView Get(uint32_t /*idx*/) const override {
    return {s_.center, s_.context, 1.0, s_.negatives};
  }

 private:
  const Subgraph& s_;
};

/// `steps` batches of `s` alone through the step Train() runs under
/// PerturbationStrategy::kNone: accumulate without clipping, then apply.
void StepOn(SkipGramModel& model, const Subgraph& s, int steps,
            double learning_rate) {
  BatchGradientEngineOptions opts;
  opts.num_nodes = model.num_nodes();
  opts.dim = model.dim();
  BatchGradientEngine engine(opts, {});
  OneSampleSource source(s);
  const uint32_t batch[] = {0};
  for (int i = 0; i < steps; ++i) {
    double loss = 0.0;
    ASSERT_TRUE(engine.TryAccumulateBatch(model, source, batch, &loss).ok());
    engine.ApplyUpdate(model, learning_rate);
  }
}

TEST(SgnsTest, SgdStepReducesLossOnAverage) {
  Rng rng(8);
  SkipGramModel model(20, 8, rng);
  const Subgraph s = MakeSubgraph(0, 1, {5, 6, 7});
  double before = SgnsLoss(model, s, 1.0, 1.0);
  StepOn(model, s, 50, 0.1);
  EXPECT_LT(SgnsLoss(model, s, 1.0, 1.0), before);
}

TEST(SgnsTest, RepeatedStepsDriveScoresApart) {
  Rng rng(9);
  SkipGramModel model(10, 6, rng);
  const Subgraph s = MakeSubgraph(2, 3, {7});
  StepOn(model, s, 200, 0.2);
  // Positive pair score should be driven up, negative down.
  EXPECT_GT(model.Score(2, 3), 1.0);
  EXPECT_LT(model.Score(2, 7), -1.0);
}

TEST(SgnsTest, ZeroNegativeWeightLeavesNegativeRowsAlmostStill) {
  Rng rng(10);
  SkipGramModel model(10, 4, rng);
  const Subgraph s = MakeSubgraph(0, 1, {5});
  const SgnsGradient g = ComputeSgnsGradient(model, s, 1.0, 0.0);
  // The negative's gradient is exactly zero when w_neg = 0.
  for (double v : g.context_grads[1].second) EXPECT_EQ(v, 0.0);
}

}  // namespace
}  // namespace sepriv
