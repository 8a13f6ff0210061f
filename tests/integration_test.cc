// End-to-end pipeline tests: dataset stand-in -> training -> evaluation,
// checking the qualitative findings of the paper's evaluation on small
// instances (the bench/ binaries run the full-scale versions).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "baselines/embedder.h"
#include "core/se_privgemb.h"
#include "eval/link_prediction.h"
#include "eval/strucequ.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace sepriv {
namespace {

SePrivGEmbConfig FastConfig() {
  SePrivGEmbConfig cfg;
  cfg.dim = 24;
  cfg.negatives = 5;
  cfg.batch_size = 64;
  cfg.learning_rate = 0.1;
  cfg.clip_threshold = 2.0;
  cfg.noise_multiplier = 5.0;
  cfg.epsilon = 3.5;
  cfg.delta = 1e-5;
  cfg.max_epochs = 250;
  cfg.track_loss = false;
  cfg.seed = 7;
  return cfg;
}

TEST(IntegrationTest, PrivatePipelineOnChameleonStandIn) {
  Graph g = MakeDataset(DatasetId::kChameleon, 0.12);
  SePrivGEmb trainer(g, ProximityKind::kDeepWalk, FastConfig());
  const TrainResult r = trainer.Train();
  EXPECT_GT(r.epochs_run, 0u);
  StrucEquOptions se_opts;
  se_opts.max_pairs = 30000;
  const double se = StrucEqu(g, r.model.w_in, se_opts);
  // Trained private embedding must beat a random embedding decisively.
  Rng rng(3);
  Matrix random_emb(g.num_nodes(), 24);
  random_emb.FillGaussian(rng);
  EXPECT_GT(se, StrucEqu(g, random_emb, se_opts) + 0.05);
}

TEST(IntegrationTest, PerturbationOrderingMatchesTableVI) {
  // naive << non-zero <= none on StrucEqu (fixed seeds, small instance).
  Graph g = MakeDataset(DatasetId::kArxiv, 0.08);
  auto cfg = FastConfig();
  StrucEquOptions se_opts;
  se_opts.max_pairs = 30000;

  cfg.perturbation = PerturbationStrategy::kNaive;
  const double se_naive =
      StrucEqu(g, SePrivGEmb(g, ProximityKind::kDeepWalk, cfg).Train().model.w_in,
               se_opts);
  cfg.perturbation = PerturbationStrategy::kNonZero;
  const double se_nonzero =
      StrucEqu(g, SePrivGEmb(g, ProximityKind::kDeepWalk, cfg).Train().model.w_in,
               se_opts);
  cfg.perturbation = PerturbationStrategy::kNone;
  const double se_clean =
      StrucEqu(g, SePrivGEmb(g, ProximityKind::kDeepWalk, cfg).Train().model.w_in,
               se_opts);

  EXPECT_GT(se_nonzero, se_naive);
  EXPECT_GE(se_clean, se_nonzero - 0.05);  // non-private at least comparable
}

TEST(IntegrationTest, NonPrivateLinkPredictionBeatsChance) {
  // Pipeline sanity on the clustered Chameleon stand-in: the non-private
  // counterpart must clearly beat chance. (The paper's own private AUCs sit
  // in the 0.48-0.56 band — Fig. 4 — so the private assertion below is
  // deliberately looser.)
  Graph g = MakeDataset(DatasetId::kChameleon, 0.1);
  const auto split = MakeLinkPredictionSplit(g);
  auto cfg = FastConfig();
  cfg.max_epochs = 400;  // longer training overfits the train edges and
                         // pushes held-out edges down as sampled negatives
  cfg.learning_rate = 0.05;
  cfg.perturbation = PerturbationStrategy::kNone;
  SePrivGEmb trainer(split.train_graph, ProximityKind::kDeepWalk, cfg);
  const TrainResult r = trainer.Train();
  const double auc = LinkPredictionAuc(split, r.model.w_in, r.model.w_out,
                                       PairScore::kInnerProductInIn);
  EXPECT_GT(auc, 0.58);
}

TEST(IntegrationTest, PrivateLinkPredictionDoesNotCollapse) {
  Graph g = MakeDataset(DatasetId::kChameleon, 0.1);
  const auto split = MakeLinkPredictionSplit(g);
  auto cfg = FastConfig();
  cfg.max_epochs = 1200;
  SePrivGEmb trainer(split.train_graph, ProximityKind::kDeepWalk, cfg);
  const TrainResult r = trainer.Train();
  const double auc = LinkPredictionAuc(split, r.model.w_in, r.model.w_out,
                                       PairScore::kInnerProductInOut);
  EXPECT_GT(auc, 0.45);  // the paper's private AUC band starts near chance
}

// The learner learns: on a dense community graph the non-private trainer
// ranks held-out edges well above chance, and the margin comes from
// training, not from the init. (At 300 epochs the AUC is only 0.54-0.58.)
class LearnerTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LearnerTest, NonPrivateTrainingPredictsCommunityLinks) {
  const uint64_t seed = GetParam();
  const Graph g = StochasticBlockModel(2000, 10, 0.1, 0.002, seed);
  const LinkPredictionSplit split = MakeLinkPredictionSplit(g, {0.1, seed});
  SePrivGEmbConfig cfg;
  cfg.dim = 32;
  cfg.batch_size = 1024;
  cfg.max_epochs = 1000;
  cfg.perturbation = PerturbationStrategy::kNone;
  cfg.track_loss = false;
  cfg.seed = seed;
  auto auc_after = [&](size_t epochs) {
    cfg.max_epochs = epochs;
    const TrainResult r = SePrivGEmb(split.train_graph,
                                     ProximityKind::kPreferentialAttachment,
                                     cfg)
                              .Train();
    return LinkPredictionAuc(split, r.model.w_in, r.model.w_out,
                             PairScore::kInnerProductInOut);
  };
  EXPECT_GE(auc_after(1000), 0.8);  // 0.862 / 0.852 / 0.841 on seeds 1-3
  EXPECT_LT(auc_after(0), 0.6);     // 0.501 / 0.491 / 0.487
}

INSTANTIATE_TEST_SUITE_P(Seeds, LearnerTest, ::testing::Values(1, 2, 3),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(IntegrationTest, BothVariantsTrainOnAllStandIns) {
  // Smoke test: SE-PrivGEmb_DW and SE-PrivGEmb_Deg run on every dataset
  // stand-in at small scale without aborting or diverging.
  auto cfg = FastConfig();
  cfg.max_epochs = 40;
  for (const DatasetSpec& spec : AllDatasets()) {
    Graph g = MakeDataset(spec.id, 0.03);
    for (ProximityKind kind : {ProximityKind::kDeepWalk,
                               ProximityKind::kPreferentialAttachment}) {
      SePrivGEmb trainer(g, kind, cfg);
      const TrainResult r = trainer.Train();
      EXPECT_TRUE(std::isfinite(r.model.w_in.FrobeniusNorm()))
          << spec.name << "/" << ProximityKindName(kind);
    }
  }
}

TEST(IntegrationTest, SePrivGEmbBeatsDpBaselinesOnStructure) {
  // The headline Fig. 3 ordering on a small instance at moderate ε.
  Graph g = MakeDataset(DatasetId::kChameleon, 0.1);
  StrucEquOptions se_opts;
  se_opts.max_pairs = 30000;

  auto cfg = FastConfig();
  cfg.max_epochs = 1000;
  const double ours =
      StrucEqu(g, SePrivGEmb(g, ProximityKind::kDeepWalk, cfg).Train().model.w_in,
               se_opts);

  EmbedderOptions bopts;
  bopts.dim = 24;
  bopts.epsilon = 3.5;
  bopts.max_epochs = 300;
  bopts.agg_epochs = 20;
  bopts.batch_size = 64;
  double best_baseline = -1.0;
  for (BaselineKind kind :
       {BaselineKind::kDpgGan, BaselineKind::kDpgVae, BaselineKind::kGap,
        BaselineKind::kProGap}) {
    const double se =
        StrucEqu(g, MakeBaseline(kind, bopts)->Embed(g).embedding, se_opts);
    best_baseline = std::max(best_baseline, se);
  }
  EXPECT_GT(ours, best_baseline);
}

TEST(IntegrationTest, EpsilonLadderExpandsEpochBudget) {
  // The mechanism behind the monotone utility-vs-ε curves: every step of the
  // paper's ε ladder strictly increases the allowed epochs.
  Graph g = MakeDataset(DatasetId::kPower, 0.2);
  auto cfg = FastConfig();
  cfg.max_epochs = 1u << 30;
  size_t prev = 0;
  for (double eps : {0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5}) {
    cfg.epsilon = eps;
    cfg.max_epochs = 1;  // don't actually train; just read the cap
    SePrivGEmb trainer(g, ProximityKind::kPreferentialAttachment, cfg);
    const TrainResult r = trainer.Train();
    EXPECT_GT(r.epochs_allowed, prev) << "eps=" << eps;
    prev = r.epochs_allowed;
  }
}

TEST(IntegrationTest, PublishedMatricesSufficeForDownstream) {
  // Theorem 2 (post-processing): downstream tasks consume only the published
  // matrices. Verify the full LP pipeline runs on (w_in, w_out) copies.
  Graph g = MakeDataset(DatasetId::kArxiv, 0.05);
  const auto split = MakeLinkPredictionSplit(g);
  auto cfg = FastConfig();
  cfg.max_epochs = 100;
  const TrainResult r =
      SePrivGEmb(split.train_graph, ProximityKind::kDeepWalk, cfg).Train();
  const Matrix w_in = r.model.w_in;    // simulated "publication"
  const Matrix w_out = r.model.w_out;
  for (PairScore score : {PairScore::kInnerProductInIn,
                          PairScore::kInnerProductInOut,
                          PairScore::kNegativeDistance}) {
    const double auc = LinkPredictionAuc(split, w_in, w_out, score);
    EXPECT_GE(auc, 0.0);
    EXPECT_LE(auc, 1.0);
  }
}

}  // namespace
}  // namespace sepriv
