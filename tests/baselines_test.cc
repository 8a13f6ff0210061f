#include "baselines/embedder.h"

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/dpggan.h"
#include "baselines/dpgvae.h"
#include "baselines/gap.h"
#include "eval/strucequ.h"
#include "graph/generators.h"

namespace sepriv {
namespace {

EmbedderOptions SmallOptions() {
  EmbedderOptions o;
  o.dim = 16;
  o.hidden_dim = 16;
  o.feature_dim = 8;
  o.max_epochs = 30;
  o.agg_epochs = 10;
  o.batch_size = 32;
  o.epsilon = 3.5;
  o.seed = 21;
  return o;
}

const BaselineKind kAllKinds[] = {BaselineKind::kDpgGan, BaselineKind::kDpgVae,
                                  BaselineKind::kGap, BaselineKind::kProGap};

class AllBaselinesTest : public ::testing::TestWithParam<BaselineKind> {};

TEST_P(AllBaselinesTest, ProducesCorrectlyShapedEmbedding) {
  Graph g = KarateClub();
  auto embedder = MakeBaseline(GetParam(), SmallOptions());
  const EmbedderResult r = embedder->Embed(g);
  EXPECT_EQ(r.embedding.rows(), g.num_nodes());
  EXPECT_EQ(r.embedding.cols(), 16u);
  EXPECT_TRUE(std::isfinite(r.embedding.FrobeniusNorm()));
  EXPECT_GT(r.embedding.FrobeniusNorm(), 0.0);
}

TEST_P(AllBaselinesTest, DeterministicPerSeed) {
  Graph g = KarateClub();
  const EmbedderResult a = MakeBaseline(GetParam(), SmallOptions())->Embed(g);
  const EmbedderResult b = MakeBaseline(GetParam(), SmallOptions())->Embed(g);
  EXPECT_EQ(a.embedding(0, 0), b.embedding(0, 0));
  EXPECT_EQ(a.embedding(5, 3), b.embedding(5, 3));
}

TEST_P(AllBaselinesTest, NameMatchesFactoryName) {
  auto embedder = MakeBaseline(GetParam(), SmallOptions());
  EXPECT_EQ(embedder->Name(), BaselineKindName(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllBaselinesTest,
                         ::testing::ValuesIn(kAllKinds),
                         [](const auto& info) {
                           return BaselineKindName(info.param);
                         });

TEST(DpsgBaselinesTest, BudgetCapsTrainingEpochs) {
  // DPGGAN/DPGVAE use the same accountant as SE-PrivGEmb; with a tiny ε on a
  // small graph (large sampling rate) almost no epochs are allowed — the
  // premature-convergence phenomenon of §VI-D.
  Graph g = KarateClub();
  auto opts = SmallOptions();
  opts.epsilon = 0.1;
  opts.max_epochs = 100000;
  for (BaselineKind kind : {BaselineKind::kDpgGan, BaselineKind::kDpgVae}) {
    const EmbedderResult r = MakeBaseline(kind, opts)->Embed(g);
    EXPECT_LT(r.epochs_run, 100000u) << BaselineKindName(kind);
    EXPECT_LE(r.spent_epsilon, opts.epsilon + 1e-9) << BaselineKindName(kind);
  }
}

TEST(DpsgBaselinesTest, LargerEpsilonMoreEpochs) {
  Graph g = KarateClub();
  auto opts = SmallOptions();
  opts.max_epochs = 1u << 20;
  opts.epsilon = 0.5;
  const size_t tight =
      MakeBaseline(BaselineKind::kDpgVae, opts)->Embed(g).epochs_run;
  opts.epsilon = 3.5;
  const size_t loose =
      MakeBaseline(BaselineKind::kDpgVae, opts)->Embed(g).epochs_run;
  EXPECT_GT(loose, tight);
}

// Checks that `sum_sq`, a sum of n squared draws, fits N(0, stddev²):
// sum_sq / stddev² is then χ² with n degrees of freedom, whose mean is n and
// standard deviation √(2n). A wrong factor of √2 in the stddev moves the
// ratio by 0.5 or more; the bound is 6 standard deviations.
void ExpectNoiseStddev(double sum_sq, size_t n, double stddev) {
  const double ratio = sum_sq / (static_cast<double>(n) * stddev * stddev);
  EXPECT_NEAR(ratio, 1.0, 6.0 * std::sqrt(2.0 / static_cast<double>(n)))
      << "over " << n << " entries, expected stddev " << stddev;
}

// Adds the squares of every gradient entry of `layer` into *sum_sq and
// their count into *n.
void AddGradSquares(Linear& layer, double* sum_sq, size_t* n) {
  for (Matrix* g : {&layer.grad_w(), &layer.grad_b()}) {
    for (size_t i = 0; i < g->size(); ++i) {
      *sum_sq += g->data()[i] * g->data()[i];
    }
    *n += g->size();
  }
}

EmbedderOptions MechanismOptions() {
  EmbedderOptions o;
  o.batch_size = 24;
  o.clip_threshold = 1.5;
  o.noise_multiplier = 4.0;
  return o;
}

TEST(DpsgBaselinesTest, DpgGanNoiseStddevIsClipTimesSigmaOverPairs) {
  // On a zeroed gradient the clip is a no-op, so what the mechanism leaves
  // is its noise: N(0, (C·σ/2B)²) on each of the discriminator's entries.
  const EmbedderOptions o = MechanismOptions();
  Rng rng(5);
  Mlp disc({128, 128, 1}, rng);
  disc.ZeroGrad();
  // sepriv-privflow: allow(unaccounted-sanitizer): unit test exercises the mechanism primitive directly; no privacy claim on its output
  PerturbDiscriminatorGrads(disc, o, rng);
  double sum_sq = 0.0;
  size_t n = 0;
  for (Linear& layer : disc.layers()) AddGradSquares(layer, &sum_sq, &n);
  ExpectNoiseStddev(sum_sq, n,
                    o.clip_threshold * o.noise_multiplier /
                        static_cast<double>(2 * o.batch_size));
}

TEST(DpsgBaselinesTest, DpgVaeNoiseStddevIsClipTimesSigmaOverPairs) {
  const EmbedderOptions o = MechanismOptions();
  Rng rng(6);
  Linear enc1(64, 64, rng), enc_mu(64, 32, rng), enc_lv(64, 32, rng);
  for (Linear* layer : {&enc1, &enc_mu, &enc_lv}) layer->ZeroGrad();
  // sepriv-privflow: allow(unaccounted-sanitizer): unit test exercises the mechanism primitive directly; no privacy claim on its output
  PerturbEncoderGrads(enc1, enc_mu, enc_lv, o, rng);
  double sum_sq = 0.0;
  size_t n = 0;
  for (Linear* layer : {&enc1, &enc_mu, &enc_lv}) {
    AddGradSquares(*layer, &sum_sq, &n);
  }
  ExpectNoiseStddev(sum_sq, n,
                    o.clip_threshold * o.noise_multiplier /
                        static_cast<double>(2 * o.batch_size));
}

TEST(GapBaselinesTest, HopNoiseStddevIsRootDegreeCapTimesSigma) {
  // ProGAP with one hop publishes the mean of the features x and the hop
  // cappedsum(rownorm(x)) + noise. The non-private run at the same seed
  // draws the same x and adds no noise, so 2·(private − non-private) is the
  // hop noise alone: N(0, K·σ²) per entry, √K being GAP's node-level
  // sensitivity and σ the calibrated multiplier.
  const Graph g = BarabasiAlbert(2000, 4, 29);
  auto opts = SmallOptions();
  opts.dim = 32;
  opts.hops = 1;
  opts.non_private = true;
  const Matrix clean =
      MakeBaseline(BaselineKind::kProGap, opts)->Embed(g).embedding;
  opts.non_private = false;
  const EmbedderResult noisy =
      MakeBaseline(BaselineKind::kProGap, opts)->Embed(g);
  ASSERT_GT(noisy.noise_multiplier_used, 0.0);
  double sum_sq = 0.0;
  for (size_t i = 0; i < clean.size(); ++i) {
    const double noise = 2.0 * (noisy.embedding.data()[i] - clean.data()[i]);
    sum_sq += noise * noise;
  }
  ExpectNoiseStddev(sum_sq, clean.size(),
                    std::sqrt(static_cast<double>(opts.degree_cap)) *
                        noisy.noise_multiplier_used);
}

TEST(GapBaselinesTest, GapNeedsMoreNoiseThanProGap) {
  // GAP re-perturbs every epoch (agg_epochs × hops queries); ProGAP perturbs
  // once per stage (hops queries). Same budget -> GAP's calibrated σ must be
  // substantially larger. This is the mechanism behind "ProGAP offers
  // slightly better utility than GAP" (paper §VI-D).
  Graph g = KarateClub();
  auto opts = SmallOptions();
  const EmbedderResult gap =
      MakeBaseline(BaselineKind::kGap, opts)->Embed(g);
  const EmbedderResult progap =
      MakeBaseline(BaselineKind::kProGap, opts)->Embed(g);
  EXPECT_GT(gap.noise_multiplier_used, 2.0 * progap.noise_multiplier_used);
}

TEST(GapBaselinesTest, NoiseDecreasesWithEpsilon) {
  Graph g = KarateClub();
  auto opts = SmallOptions();
  opts.epsilon = 0.5;
  const double tight =
      MakeBaseline(BaselineKind::kGap, opts)->Embed(g).noise_multiplier_used;
  opts.epsilon = 3.5;
  const double loose =
      MakeBaseline(BaselineKind::kGap, opts)->Embed(g).noise_multiplier_used;
  EXPECT_GT(tight, loose);
}

TEST(GapBaselinesTest, NonPrivateModeIsNoiseless) {
  Graph g = KarateClub();
  auto opts = SmallOptions();
  opts.non_private = true;
  const EmbedderResult r = MakeBaseline(BaselineKind::kProGap, opts)->Embed(g);
  EXPECT_EQ(r.noise_multiplier_used, 0.0);
  EXPECT_EQ(r.spent_epsilon, 0.0);
}

TEST(GapBaselinesTest, TighterBudgetDistortsEmbeddingMore) {
  // With a fixed seed the random features and noise draws are identical, so
  // the private embedding differs from the noiseless one in proportion to
  // the calibrated σ: ε = 0.5 must distort more than ε = 3.5.
  Graph g = BarabasiAlbert(150, 4, 33);
  auto opts = SmallOptions();
  opts.hops = 2;
  opts.non_private = true;
  const Matrix clean =
      MakeBaseline(BaselineKind::kProGap, opts)->Embed(g).embedding;
  opts.non_private = false;
  opts.epsilon = 0.5;
  const Matrix tight =
      MakeBaseline(BaselineKind::kProGap, opts)->Embed(g).embedding;
  opts.epsilon = 3.5;
  const Matrix loose =
      MakeBaseline(BaselineKind::kProGap, opts)->Embed(g).embedding;
  const double dist_tight = Sub(tight, clean).FrobeniusNorm();
  const double dist_loose = Sub(loose, clean).FrobeniusNorm();
  EXPECT_GT(dist_tight, dist_loose);
  EXPECT_GT(dist_loose, 0.0);
}

TEST(GapBaselinesTest, EmbedderRunsOnSparsePowerLikeGraph) {
  // Regression guard: dangling/low-degree rows must not break row
  // normalisation or aggregation.
  Graph g = WattsStrogatz(200, 1, 0.05, 60, 35);
  auto opts = SmallOptions();
  for (BaselineKind kind : kAllKinds) {
    const EmbedderResult r = MakeBaseline(kind, opts)->Embed(g);
    EXPECT_TRUE(std::isfinite(r.embedding.FrobeniusNorm()))
        << BaselineKindName(kind);
  }
}

}  // namespace
}  // namespace sepriv
