#include "core/se_privgemb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/sparse_row_grad.h"
#include "dp/accountant.h"
#include "eval/strucequ.h"
#include "graph/generators.h"
#include "test_tmpdir.h"
#include "util/stats.h"

namespace sepriv {
namespace {

SePrivGEmbConfig SmallConfig() {
  SePrivGEmbConfig cfg;
  cfg.dim = 16;
  cfg.negatives = 5;
  cfg.batch_size = 32;
  cfg.learning_rate = 0.1;
  cfg.max_epochs = 150;
  cfg.noise_multiplier = 5.0;
  cfg.clip_threshold = 2.0;
  cfg.epsilon = 3.5;
  cfg.delta = 1e-5;
  cfg.seed = 42;
  return cfg;
}

// Dense rows×cols copy of the accumulator: slot s holds row touched()[s],
// every other row is zero.
Matrix DenseCopy(const SparseRowGrad& g, size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (size_t s = 0; s < g.touched().size(); ++s) {
    const auto src = g.SlotRow(static_cast<uint32_t>(s));
    std::copy(src.begin(), src.end(), m.Row(g.touched()[s]).begin());
  }
  return m;
}

TEST(SparseRowGradTest, TracksTouchedRows) {
  SparseRowGrad g(5, 3);
  const double row[3] = {1.0, 2.0, 3.0};
  g.AddToRow(1, row);
  g.AddToRow(3, row);
  g.AddToRow(1, row);  // repeat should not duplicate
  ASSERT_EQ(g.touched().size(), 2u);
  EXPECT_EQ(DenseCopy(g, 5, 3)(1, 0), 2.0);
  EXPECT_EQ(DenseCopy(g, 5, 3)(3, 2), 3.0);
  g.Clear();
  EXPECT_TRUE(g.touched().empty());
  EXPECT_EQ(DenseCopy(g, 5, 3)(1, 0), 0.0);
}

TEST(SparseRowGradTest, ClearOnlyAffectsTouched) {
  SparseRowGrad g(4, 2);
  const double row[2] = {5.0, 5.0};
  g.AddToRow(0, row);
  g.Clear();
  g.AddToRow(2, row);
  EXPECT_EQ(DenseCopy(g, 4, 2)(2, 1), 5.0);
  EXPECT_EQ(DenseCopy(g, 4, 2)(0, 0), 0.0);
}

TEST(SparseRowGradTest, ClearReusesSlotsFromZeroAndRowsStartAtZero) {
  SparseRowGrad g(6, 3);
  const double row[3] = {1.5, -2.0, 4.0};
  for (uint32_t r : {4u, 1u, 5u}) g.AddToRow(r, row);
  ASSERT_EQ(g.slab().size(), 9u);
  g.Clear();
  EXPECT_TRUE(g.slab().empty());
  // New rows, and one of the old ones, take slots 0, 1, 2 in touch order.
  EXPECT_EQ(g.Touch(2), 0u);
  EXPECT_EQ(g.Touch(5), 1u);
  EXPECT_EQ(g.Touch(2), 0u);
  EXPECT_EQ(g.Touch(0), 2u);
  EXPECT_EQ(g.touched(), (std::vector<uint32_t>{2, 5, 0}));
  for (uint32_t s = 0; s < 3; ++s) {
    for (double x : g.SlotRow(s)) EXPECT_EQ(x, 0.0) << "slot " << s;
  }
  g.AddToRow(5, row);
  EXPECT_EQ(DenseCopy(g, 6, 3)(5, 2), 4.0);
  EXPECT_EQ(DenseCopy(g, 6, 3)(4, 2), 0.0);
}

TEST(TrainerTest, NonPrivateRunsAllEpochs) {
  Graph g = KarateClub();
  auto cfg = SmallConfig();
  cfg.perturbation = PerturbationStrategy::kNone;
  SePrivGEmb trainer(g, ProximityKind::kDeepWalk, cfg);
  const TrainResult r = trainer.Train();
  EXPECT_EQ(r.epochs_run, cfg.max_epochs);
  EXPECT_FALSE(r.stopped_by_budget);
  EXPECT_EQ(r.spent_epsilon, 0.0);
  EXPECT_EQ(r.model.w_in.rows(), g.num_nodes());
  EXPECT_EQ(r.model.w_in.cols(), cfg.dim);
  EXPECT_EQ(r.model.w_out.rows(), g.num_nodes());
}

TEST(TrainerTest, DeterministicForSeed) {
  Graph g = KarateClub();
  auto cfg = SmallConfig();
  cfg.max_epochs = 30;
  SePrivGEmb t1(g, ProximityKind::kDeepWalk, cfg);
  SePrivGEmb t2(g, ProximityKind::kDeepWalk, cfg);
  const TrainResult a = t1.Train();
  const TrainResult b = t2.Train();
  EXPECT_EQ(a.model.w_in(0, 0), b.model.w_in(0, 0));
  EXPECT_EQ(a.model.w_out(5, 3), b.model.w_out(5, 3));
  EXPECT_EQ(a.epochs_run, b.epochs_run);
}

TEST(TrainerTest, SeedChangesOutcome) {
  Graph g = KarateClub();
  auto cfg = SmallConfig();
  cfg.max_epochs = 30;
  SePrivGEmb t1(g, ProximityKind::kDeepWalk, cfg);
  cfg.seed = 43;
  SePrivGEmb t2(g, ProximityKind::kDeepWalk, cfg);
  EXPECT_NE(t1.Train().model.w_in(0, 0), t2.Train().model.w_in(0, 0));
}

TEST(TrainerTest, EdgeWeightsNormalizedToMaxOne) {
  Graph g = KarateClub();
  SePrivGEmb trainer(g, ProximityKind::kDeepWalk, SmallConfig());
  double hi = 0.0;
  for (double w : trainer.edge_weights()) {
    EXPECT_GT(w, 0.0);
    hi = std::max(hi, w);
  }
  EXPECT_NEAR(hi, 1.0, 1e-12);
  EXPECT_GT(trainer.min_weight(), 0.0);
  EXPECT_LE(trainer.min_weight(), 1.0);
}

TEST(TrainerTest, BudgetCapsEpochs) {
  Graph g = KarateClub();  // |E| = 78, B = 32 -> γ = 0.41: weak amplification
  auto cfg = SmallConfig();
  cfg.epsilon = 0.5;
  cfg.max_epochs = 100000;
  SePrivGEmb trainer(g, ProximityKind::kPreferentialAttachment, cfg);
  const TrainResult r = trainer.Train();
  EXPECT_TRUE(r.stopped_by_budget);
  EXPECT_EQ(r.epochs_run, r.epochs_allowed);
  EXPECT_LT(r.epochs_run, 100000u);
  // The spent ε must respect the target.
  EXPECT_LE(r.spent_epsilon, cfg.epsilon + 1e-9);
  // δ̂ just below the stopping threshold (Algorithm 2 line 10).
  EXPECT_LT(r.spent_delta, cfg.delta);
}

TEST(TrainerTest, LargerEpsilonAllowsMoreEpochs) {
  Graph g = KarateClub();
  auto cfg = SmallConfig();
  cfg.max_epochs = std::numeric_limits<size_t>::max() / 2;
  cfg.epsilon = 0.5;
  SePrivGEmb t_tight(g, ProximityKind::kDeepWalk, cfg);
  cfg.epsilon = 3.5;
  SePrivGEmb t_loose(g, ProximityKind::kDeepWalk, cfg);
  EXPECT_GT(t_loose.Train().epochs_allowed, t_tight.Train().epochs_allowed);
}

// The published privacy spend is the accountant's arithmetic at the run's
// own (σ, γ = B/|E|, T), evaluated here by an independent accountant. An
// accountant built with the wrong σ or γ moves epochs_allowed (2σ allows 46
// epochs here and γ/2 allows 69, against 12) and spent_epsilon with it.
TEST(TrainerTest, SpentEpsilonMatchesAnIndependentAccountant) {
  const Graph g = BarabasiAlbert(200, 3, 1);
  SePrivGEmbConfig cfg;  // paper defaults: B = 128, σ = 5, ε = 3.5
  cfg.dim = 32;
  cfg.max_epochs = 100000;
  cfg.track_loss = false;
  const TrainResult r =
      SePrivGEmb(g, ProximityKind::kPreferentialAttachment, cfg).Train();
  ASSERT_TRUE(r.stopped_by_budget);
  ASSERT_GT(r.epochs_run, 0u);
  EXPECT_EQ(r.epochs_run, r.epochs_allowed);

  RdpAccountant want(cfg.noise_multiplier,
                     static_cast<double>(cfg.batch_size) /
                         static_cast<double>(g.num_edges()),
                     cfg.rdp_max_order);
  EXPECT_EQ(r.epochs_allowed, want.MaxSteps(cfg.epsilon, cfg.delta));
  want.Step(r.epochs_run);
  const DpBound bound = want.GetEpsilon(cfg.delta);
  EXPECT_EQ(r.spent_epsilon, bound.epsilon);
  EXPECT_EQ(r.best_rdp_order, bound.best_order);
  EXPECT_EQ(r.spent_delta, want.GetDelta(cfg.epsilon));
}

// Eq. 9's noise, measured without a digest. Two one-epoch runs that differ
// only in σ share the batch, the clipped gradient and the noise key, so on
// every row the batch touched, w_{σ=1} − w_{σ=5} = η·C·(5 − 1)·Z with Z the
// same standard normal draws: the scaled difference has variance 1 on both
// matrices.
TEST(TrainerTest, NonZeroNoiseStddevIsClipTimesSigma) {
  const Graph g = BarabasiAlbert(2000, 4, 3);
  SePrivGEmbConfig cfg;
  cfg.dim = 32;
  cfg.epsilon = 1e6;  // the budget never stops the one epoch
  cfg.track_loss = false;
  auto train = [&](size_t epochs, double sigma) {
    cfg.max_epochs = epochs;
    cfg.noise_multiplier = sigma;
    return SePrivGEmb(g, ProximityKind::kPreferentialAttachment, cfg).Train();
  };
  const TrainResult init = train(0, 5.0);
  const TrainResult loud = train(1, 5.0);
  const TrainResult quiet = train(1, 1.0);
  ASSERT_EQ(loud.epochs_run, 1u);
  ASSERT_EQ(quiet.epochs_run, 1u);

  const double scale = cfg.learning_rate * cfg.clip_threshold * (5.0 - 1.0);
  const auto z_variance = [&](const Matrix& w0, const Matrix& w_loud,
                              const Matrix& w_quiet) {
    std::vector<double> z;
    for (size_t v = 0; v < w0.rows(); ++v) {
      const auto a = w0.Row(v);
      const auto b = w_loud.Row(v);
      if (std::equal(a.begin(), a.end(), b.begin())) continue;  // untouched
      const auto q = w_quiet.Row(v);
      for (size_t d = 0; d < q.size(); ++d) z.push_back((q[d] - b[d]) / scale);
    }
    EXPECT_GT(z.size(), 1000u);
    const double sd = SampleStdDev(z);
    return sd * sd;
  };
  const double var_in =
      z_variance(init.model.w_in, loud.model.w_in, quiet.model.w_in);
  const double var_out =
      z_variance(init.model.w_out, loud.model.w_out, quiet.model.w_out);
  EXPECT_GE(var_in, 0.9);
  EXPECT_LE(var_in, 1.1);
  EXPECT_GE(var_out, 0.9);
  EXPECT_LE(var_out, 1.1);
}

// Eq. 3's clip, measured without a digest. As above, one-epoch runs at
// σ = 5 and σ = 1 share the clipped batch sum G and the noise Z, so
// Δσ = w₀ − w_σ = η·(G + C·σ·Z) and G = (5·Δ₁ − Δ₅) / (4η) on each matrix.
// Each sample's clipped block has norm at most C, so ‖G‖_F ≤ B·C (on w_out
// up to a row that one sample's contexts repeat, which is rare here). At
// C = 10⁻⁴ ‖G‖_F reads about 10⁻³ on both matrices, against B·C =
// 1.28·10⁻², and about 6.5·10⁻² with clipping off.
TEST(TrainerTest, ClippedBatchSumIsAtMostBatchTimesClip) {
  const Graph g = BarabasiAlbert(2000, 4, 3);
  SePrivGEmbConfig cfg;
  cfg.dim = 32;
  cfg.clip_threshold = 1e-4;
  cfg.epsilon = 1e6;  // the budget never stops the one epoch
  cfg.track_loss = false;
  auto train = [&](size_t epochs, double sigma) {
    cfg.max_epochs = epochs;
    cfg.noise_multiplier = sigma;
    return SePrivGEmb(g, ProximityKind::kPreferentialAttachment, cfg).Train();
  };
  const TrainResult init = train(0, 5.0);
  const TrainResult loud = train(1, 5.0);
  const TrainResult quiet = train(1, 1.0);
  ASSERT_EQ(loud.epochs_run, 1u);
  ASSERT_EQ(quiet.epochs_run, 1u);

  const auto batch_sum_norm = [&](const Matrix& w0, const Matrix& w_loud,
                                  const Matrix& w_quiet) {
    double squares = 0.0;
    for (size_t i = 0; i < w0.size(); ++i) {
      const double d5 = w0.data()[i] - w_loud.data()[i];
      const double d1 = w0.data()[i] - w_quiet.data()[i];
      const double sum = (5.0 * d1 - d5) / (4.0 * cfg.learning_rate);
      squares += sum * sum;
    }
    return std::sqrt(squares);
  };
  const double bound =
      static_cast<double>(cfg.batch_size) * cfg.clip_threshold;
  for (const auto& [name, norm] :
       {std::pair{"w_in", batch_sum_norm(init.model.w_in, loud.model.w_in,
                                         quiet.model.w_in)},
        std::pair{"w_out", batch_sum_norm(init.model.w_out, loud.model.w_out,
                                          quiet.model.w_out)}}) {
    EXPECT_GT(norm, cfg.clip_threshold) << name << ": no gradient measured";
    EXPECT_LE(norm, bound) << name;
  }
}

TEST(TrainerTest, NonPrivateLossDecreases) {
  Graph g = BarabasiAlbert(120, 4, 5);
  auto cfg = SmallConfig();
  cfg.perturbation = PerturbationStrategy::kNone;
  cfg.max_epochs = 300;
  cfg.batch_size = 64;
  SePrivGEmb trainer(g, ProximityKind::kDeepWalk, cfg);
  const TrainResult r = trainer.Train();
  ASSERT_EQ(r.loss_curve.size(), 300u);
  const double head = Mean(std::vector<double>(r.loss_curve.begin(),
                                               r.loss_curve.begin() + 30));
  const double tail = Mean(std::vector<double>(r.loss_curve.end() - 30,
                                               r.loss_curve.end()));
  EXPECT_LT(tail, head);
}

TEST(TrainerTest, NonPrivateEmbeddingBeatsRandomOnStrucEqu) {
  Graph g = BarabasiAlbert(150, 4, 7);
  auto cfg = SmallConfig();
  cfg.perturbation = PerturbationStrategy::kNone;
  cfg.max_epochs = 400;
  cfg.batch_size = 64;
  SePrivGEmb trainer(g, ProximityKind::kDeepWalk, cfg);
  const TrainResult r = trainer.Train();
  const double trained = StrucEqu(g, r.model.w_in);
  Rng rng(11);
  Matrix random_emb(g.num_nodes(), cfg.dim);
  random_emb.FillGaussian(rng);
  const double random_baseline = StrucEqu(g, random_emb);
  EXPECT_GT(trained, random_baseline + 0.1);
}

TEST(TrainerTest, NaiveNoiseSwampsModel) {
  // With σ = 5, C = 2, B = 32 the naive strategy adds N(0, (BCσ)²) noise to
  // every row each epoch; after a few epochs the weights are dominated by
  // noise, unlike the non-zero strategy (paper Table VI mechanism).
  Graph g = KarateClub();
  auto cfg = SmallConfig();
  cfg.max_epochs = 20;
  cfg.perturbation = PerturbationStrategy::kNaive;
  SePrivGEmb naive(g, ProximityKind::kDeepWalk, cfg);
  cfg.perturbation = PerturbationStrategy::kNonZero;
  SePrivGEmb nonzero(g, ProximityKind::kDeepWalk, cfg);
  const double norm_naive = naive.Train().model.w_in.FrobeniusNorm();
  const double norm_nonzero = nonzero.Train().model.w_in.FrobeniusNorm();
  EXPECT_GT(norm_naive, 5.0 * norm_nonzero);
}

TEST(TrainerTest, NonZeroPreservesUtilityBetterThanNaive) {
  Graph g = BarabasiAlbert(120, 4, 9);
  auto cfg = SmallConfig();
  cfg.max_epochs = 120;
  cfg.batch_size = 64;
  cfg.perturbation = PerturbationStrategy::kNonZero;
  const double se_nonzero =
      StrucEqu(g, SePrivGEmb(g, ProximityKind::kDeepWalk, cfg).Train().model.w_in);
  cfg.perturbation = PerturbationStrategy::kNaive;
  const double se_naive =
      StrucEqu(g, SePrivGEmb(g, ProximityKind::kDeepWalk, cfg).Train().model.w_in);
  EXPECT_GT(se_nonzero, se_naive);
}

TEST(TrainerTest, CustomEdgeProximityAccepted) {
  Graph g = PathGraph(20);
  EdgeProximity custom;
  custom.values.assign(g.num_edges(), 0.5);
  custom.values[0] = 2.0;
  custom.min_positive = 0.5;
  custom.max_value = 2.0;
  custom.normalized.assign(g.num_edges(), 0.25);
  custom.normalized[0] = 1.0;
  custom.normalized_min_positive = 0.25;
  auto cfg = SmallConfig();
  cfg.max_epochs = 5;
  SePrivGEmb trainer(g, custom, cfg);
  EXPECT_NEAR(trainer.edge_weights()[0], 1.0, 1e-12);
  EXPECT_NEAR(trainer.min_weight(), 0.25, 1e-12);
  trainer.Train();  // must run without aborting
}

TEST(TrainerTest, NegativeWeightingModesAllTrain) {
  Graph g = KarateClub();
  auto cfg = SmallConfig();
  cfg.max_epochs = 10;
  for (auto mode : {NegativeWeighting::kPaperPij,
                    NegativeWeighting::kUnifiedMinP, NegativeWeighting::kUnit}) {
    cfg.negative_weighting = mode;
    SePrivGEmb trainer(g, ProximityKind::kDeepWalk, cfg);
    const TrainResult r = trainer.Train();
    EXPECT_EQ(r.epochs_run, 10u);
    EXPECT_TRUE(std::isfinite(r.model.w_in.FrobeniusNorm()));
  }
}

TEST(TrainerTest, ProximityWeightedPositiveSampling) {
  Graph g = KarateClub();
  auto cfg = SmallConfig();
  cfg.max_epochs = 10;
  cfg.positive_sampling = PositiveSampling::kProximityWeighted;
  // Only valid non-privately: alias draws are with replacement, which the
  // subsampled-RDP accountant cannot cover (see the rejection test below).
  cfg.perturbation = PerturbationStrategy::kNone;
  SePrivGEmb trainer(g, ProximityKind::kDeepWalk, cfg);
  EXPECT_EQ(trainer.Train().epochs_run, 10u);
}

TEST(TrainerDeathTest, ProximityWeightedPrivateTrainingRejected) {
  // With-replacement proximity-weighted batches break the accountant's
  // uniform without-replacement sampling_rate assumption; a private run
  // would publish an invalid ε. Train() must refuse the combination.
  Graph g = KarateClub();
  auto cfg = SmallConfig();
  cfg.positive_sampling = PositiveSampling::kProximityWeighted;
  for (auto strategy :
       {PerturbationStrategy::kNonZero, PerturbationStrategy::kNaive}) {
    cfg.perturbation = strategy;
    SePrivGEmb trainer(g, ProximityKind::kDeepWalk, cfg);
    EXPECT_DEATH(trainer.Train(), "without-replacement");
  }
}

// The batch-gradient engine's determinism contract: for a fixed seed the
// ENTIRE TrainResult — weights, loss curve, privacy spend — is bit-identical
// for every thread count, in private and non-private modes alike.
void ExpectThreadCountInvariant(PerturbationStrategy strategy) {
  Graph g = BarabasiAlbert(150, 4, 7);
  auto cfg = SmallConfig();
  cfg.max_epochs = 25;
  cfg.batch_size = 48;
  cfg.perturbation = strategy;

  cfg.num_threads = 1;
  SePrivGEmb t1(g, ProximityKind::kDeepWalk, cfg);
  const TrainResult base = t1.Train();

  for (size_t threads : {2UL, 4UL, 8UL}) {
    cfg.num_threads = threads;
    SePrivGEmb tn(g, ProximityKind::kDeepWalk, cfg);
    const TrainResult r = tn.Train();
    EXPECT_EQ(MaxAbsDiff(base.model.w_in, r.model.w_in), 0.0)
        << "w_in differs at " << threads << " threads";
    EXPECT_EQ(MaxAbsDiff(base.model.w_out, r.model.w_out), 0.0)
        << "w_out differs at " << threads << " threads";
    EXPECT_EQ(base.loss_curve, r.loss_curve)
        << "loss curve differs at " << threads << " threads";
    EXPECT_EQ(base.epochs_run, r.epochs_run);
    EXPECT_EQ(base.spent_epsilon, r.spent_epsilon);
    EXPECT_EQ(base.spent_delta, r.spent_delta);
  }
}

TEST(TrainerTest, ThreadCountInvariantNonPrivate) {
  ExpectThreadCountInvariant(PerturbationStrategy::kNone);
}

TEST(TrainerTest, ThreadCountInvariantPrivateNonZero) {
  ExpectThreadCountInvariant(PerturbationStrategy::kNonZero);
}

TEST(TrainerTest, ThreadCountInvariantPrivateNaive) {
  ExpectThreadCountInvariant(PerturbationStrategy::kNaive);
}

TEST(TrainerTest, AutoThreadsMatchesExplicitThreadCount) {
  // num_threads = 0 resolves to SEPRIV_NUM_THREADS/hardware concurrency;
  // whatever it resolves to, the result must equal an explicit run.
  Graph g = KarateClub();
  auto cfg = SmallConfig();
  cfg.max_epochs = 15;
  cfg.num_threads = 0;
  SePrivGEmb auto_t(g, ProximityKind::kDeepWalk, cfg);
  cfg.num_threads = cfg.ResolvedThreads();
  EXPECT_GE(cfg.num_threads, 1u);
  SePrivGEmb explicit_t(g, ProximityKind::kDeepWalk, cfg);
  EXPECT_EQ(MaxAbsDiff(auto_t.Train().model.w_in,
                       explicit_t.Train().model.w_in),
            0.0);
}

TEST(TrainerTest, ProximityCacheKnobResolution) {
  // Save/restore the real variable: the CI integration job exports it for
  // the whole binary and later tests must keep seeing it.
  // sepriv-lint: allow(raw-getenv): save/restore must distinguish unset from empty, which the GetStringEnv fallback cannot
  const char* saved = std::getenv("SEPRIV_PROXIMITY_CACHE");
  const std::string saved_value = saved == nullptr ? "" : saved;

  SePrivGEmbConfig cfg;
  setenv("SEPRIV_PROXIMITY_CACHE", "/env/dir", /*overwrite=*/1);
  EXPECT_EQ(cfg.ResolvedProximityCachePath(), "/env/dir");  // empty -> env
  cfg.proximity_cache_path = "/explicit";
  EXPECT_EQ(cfg.ResolvedProximityCachePath(), "/explicit");
  cfg.proximity_cache_path = "-";  // forced off beats the env var
  EXPECT_EQ(cfg.ResolvedProximityCachePath(), "");
  unsetenv("SEPRIV_PROXIMITY_CACHE");
  cfg.proximity_cache_path.clear();
  EXPECT_EQ(cfg.ResolvedProximityCachePath(), "");  // unset -> disabled

  if (saved != nullptr) {
    setenv("SEPRIV_PROXIMITY_CACHE", saved_value.c_str(), /*overwrite=*/1);
  }
}

TEST(TrainerTest, ProximityCachePathColdAndWarmBitIdentical) {
  // End-to-end cached precompute: the first trainer writes the edge-weight
  // cache, the second loads it; both must match a cache-less run bit for bit
  // (weights, loss curve, min proximity).
  const std::string dir = TestTmpDir() + "/trainer_prox_cache";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  Graph g = BarabasiAlbert(120, 4, 9);
  auto cfg = SmallConfig();
  cfg.max_epochs = 20;
  // "-" forces caching OFF even when SEPRIV_PROXIMITY_CACHE is exported
  // (as the CI integration job does), so this baseline really is uncached.
  cfg.proximity_cache_path = "-";
  SePrivGEmb no_cache(g, ProximityKind::kKatz, cfg);
  const TrainResult base = no_cache.Train();

  cfg.proximity_cache_path = dir;
  SePrivGEmb cold(g, ProximityKind::kKatz, cfg);
  const TrainResult cold_r = cold.Train();
  // The cold trainer wrote one file, in the per-shard format
  // (proxshard_*/shard_0_*.bin) and not as a whole-graph prox_*.bin.
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].parent_path().filename().string().rfind("proxshard_", 0),
            0u);
  EXPECT_EQ(files[0].filename().string().rfind("shard_0_", 0), 0u);
  EXPECT_EQ(files[0].extension(), ".bin");
  SePrivGEmb warm(g, ProximityKind::kKatz, cfg);
  const TrainResult warm_r = warm.Train();

  for (const TrainResult* r : {&cold_r, &warm_r}) {
    EXPECT_EQ(MaxAbsDiff(base.model.w_in, r->model.w_in), 0.0);
    EXPECT_EQ(MaxAbsDiff(base.model.w_out, r->model.w_out), 0.0);
    EXPECT_EQ(base.loss_curve, r->loss_curve);
    EXPECT_EQ(base.min_proximity, r->min_proximity);
  }
  std::filesystem::remove_all(dir, ec);
}

TEST(TrainerDeathTest, EmptyGraphAborts) {
  Graph g;
  EdgeProximity empty;
  auto cfg = SmallConfig();
  SePrivGEmb trainer(g, empty, cfg);
  EXPECT_DEATH(trainer.Train(), "empty graph");
}

TEST(TrainerTest, ConfigDebugStringMentionsKeyParams) {
  const auto s = SmallConfig().DebugString();
  EXPECT_NE(s.find("B=32"), std::string::npos);
  EXPECT_NE(s.find("sigma=5"), std::string::npos);
  EXPECT_NE(s.find("non-zero"), std::string::npos);
}

// Runtime half of the privacy-flow contract (the static half is
// tools/lint/privflow): the mechanism layer stamps Matrix::dp_sanitized when
// it actually injects noise, so a published TrainResult can be audited for
// whether the DP path really ran — path sensitivity the static taint pass
// gives up on.
TEST(TrainerTest, PrivateTrainMarksModelSanitized) {
  Graph g = KarateClub();
  auto cfg = SmallConfig();
  cfg.max_epochs = 5;
  SePrivGEmb trainer(g, ProximityKind::kDeepWalk, cfg);
  const TrainResult r = trainer.Train();  // kNonZero: accumulator noise
  ASSERT_GT(r.epochs_run, 0u);
  EXPECT_TRUE(r.model.w_in.dp_sanitized());
  EXPECT_TRUE(r.model.w_out.dp_sanitized());
}

TEST(TrainerTest, NaivePerturbationAlsoMarksModelSanitized) {
  Graph g = KarateClub();
  auto cfg = SmallConfig();
  cfg.max_epochs = 5;
  cfg.perturbation = PerturbationStrategy::kNaive;
  SePrivGEmb trainer(g, ProximityKind::kDeepWalk, cfg);
  const TrainResult r = trainer.Train();
  ASSERT_GT(r.epochs_run, 0u);
  EXPECT_TRUE(r.model.w_in.dp_sanitized());
  EXPECT_TRUE(r.model.w_out.dp_sanitized());
}

TEST(TrainerTest, NonPrivateTrainLeavesModelUnsanitized) {
  Graph g = KarateClub();
  auto cfg = SmallConfig();
  cfg.max_epochs = 5;
  cfg.perturbation = PerturbationStrategy::kNone;
  SePrivGEmb trainer(g, ProximityKind::kDeepWalk, cfg);
  const TrainResult r = trainer.Train();
  ASSERT_GT(r.epochs_run, 0u);
  EXPECT_FALSE(r.model.w_in.dp_sanitized());
  EXPECT_FALSE(r.model.w_out.dp_sanitized());
}

#ifndef NDEBUG
TEST(TrainerDeathTest, UnsanitizedMatrixFailsPublicationCheck) {
  Matrix m(2, 2);
  EXPECT_DEATH(SEPRIV_DCHECK_SANITIZED(m), "sanitized bit");
  m.MarkDpSanitized();
  SEPRIV_DCHECK_SANITIZED(m);  // passes once the mechanism layer stamps it
}
#endif

}  // namespace
}  // namespace sepriv
