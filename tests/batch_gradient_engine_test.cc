#include "core/batch_gradient_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "dp/clipping.h"
#include "embedding/sgns.h"
#include "embedding/subgraph_sampler.h"
#include "graph/generators.h"
#include "linalg/matrix.h"
#include "util/math_util.h"
#include "util/mem.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sepriv {
namespace {

struct Fixture {
  Graph graph;
  SubgraphSampler sampler;
  SkipGramModel model;
  std::vector<double> weights;
  std::vector<uint32_t> batch;

  explicit Fixture(uint64_t seed = 3, size_t dim = 12)
      : graph(BarabasiAlbert(80, 3, seed)),
        sampler(graph, 4, seed + 1) {
    Rng rng(seed + 2);
    model = SkipGramModel(graph.num_nodes(), dim, rng);
    weights.assign(graph.num_edges(), 0.0);
    for (size_t e = 0; e < weights.size(); ++e) {
      weights[e] = 0.1 + 0.9 * rng.Uniform();
    }
    batch = sampler.SampleBatch(40, rng);
  }

  /// Accumulates `b` through the resident source over the fixture's table.
  double Accumulate(BatchGradientEngine& engine, const SkipGramModel& m,
                    std::span<const uint32_t> b) const {
    InMemorySampleSource source(sampler.All(), weights);
    double loss = 0.0;
    EXPECT_TRUE(engine.TryAccumulateBatch(m, source, b, &loss).ok());
    return loss;
  }

  /// Row `idx` of the table as a Subgraph, the sgns reference input.
  Subgraph SampleAt(uint32_t idx) const {
    const SubgraphTable::Row r = sampler.All()[idx];
    return {r.center, r.context, {r.negatives.begin(), r.negatives.end()},
            idx};
  }

  /// Clips some but not all of the batch's center and context blocks
  /// (FixtureBatchClipsSomeBlocks), whose norms run from 0.015 to 0.10.
  static constexpr double kClip = 0.04;

  BatchGradientEngineOptions Options(size_t threads, bool clip) const {
    BatchGradientEngineOptions o;
    o.num_nodes = graph.num_nodes();
    o.dim = model.dim();
    o.clip_per_sample = clip;
    o.clip_threshold = kClip;
    o.negative_weighting = NegativeWeighting::kPaperPij;
    o.min_weight = 0.05;
    o.num_threads = threads;
    return o;
  }
};

// Dense |V|×dim copy of an accumulator over the fixture's graph: slot s
// holds row touched()[s], every other row is zero.
Matrix DenseCopy(const SparseRowGrad& g, const Fixture& f) {
  Matrix m(f.graph.num_nodes(), f.model.dim());
  for (size_t s = 0; s < g.touched().size(); ++s) {
    const auto src = g.SlotRow(static_cast<uint32_t>(s));
    std::copy(src.begin(), src.end(), m.Row(g.touched()[s]).begin());
  }
  return m;
}

/// The pre-engine serial reference: per-sample gradient, per-matrix clip,
/// accumulate in sample order (what SePrivGEmb::Train used to inline), on
/// top of what `grad_in` and `grad_out` already hold. Reads the samples
/// through `source` and returns the batch loss.
double SerialReference(const SkipGramModel& model, const SampleSource& source,
                       std::span<const uint32_t> batch, bool clip,
                       double clip_threshold, SparseRowGrad& grad_in,
                       SparseRowGrad& grad_out) {
  double loss = 0.0;
  for (uint32_t idx : batch) {
    const SampleView v = source.Get(idx);
    const Subgraph s{v.center, v.context,
                     {v.negatives.begin(), v.negatives.end()}, idx};
    SgnsGradient g = ComputeSgnsGradient(model, s, v.weight, v.weight);
    loss += g.loss;
    if (clip) {
      // sepriv-privflow: allow(unaccounted-sanitizer): unit test exercises the mechanism primitive directly; no privacy claim on its output
      ClipL2InPlace(g.center_grad, clip_threshold);
      // The context rows clip as one block, whose norm the kernel layer
      // sums in its own order; a plain loop can differ in the last bit.
      std::vector<double> block;
      for (const auto& [_, grad] : g.context_grads) {
        block.insert(block.end(), grad.begin(), grad.end());
      }
      const double scale =
          ClipScale(Norm(block.data(), block.size()), clip_threshold);
      if (scale != 1.0) {
        for (auto& [_, grad] : g.context_grads) {
          for (double& x : grad) x *= scale;
        }
      }
    }
    grad_in.AddToRow(g.center, g.center_grad);
    for (const auto& [row, grad] : g.context_grads) {
      grad_out.AddToRow(row, grad);
    }
  }
  return loss;
}

/// Bit equality of two accumulators: same touched rows in the same slot
/// order, and bit-identical slot rows.
bool SameBits(const SparseRowGrad& a, const SparseRowGrad& b) {
  if (a.touched() != b.touched()) return false;
  for (size_t s = 0; s < a.touched().size(); ++s) {
    const auto ra = a.SlotRow(static_cast<uint32_t>(s));
    const auto rb = b.SlotRow(static_cast<uint32_t>(s));
    if (std::memcmp(ra.data(), rb.data(), ra.size_bytes()) != 0) return false;
  }
  return true;
}

// Every engine test that passes clip = true scales some rows: the fixture
// batch has center and context blocks on both sides of Fixture::kClip.
TEST(BatchGradientEngineTest, FixtureBatchClipsSomeBlocks) {
  const Fixture f;
  size_t centers_clipped = 0, contexts_clipped = 0;
  for (uint32_t idx : f.batch) {
    const SgnsGradient g =
        ComputeSgnsGradient(f.model, f.SampleAt(idx), f.weights[idx],
                            f.weights[idx]);
    std::vector<double> block;
    for (const auto& [_, grad] : g.context_grads) {
      block.insert(block.end(), grad.begin(), grad.end());
    }
    centers_clipped +=
        Norm(g.center_grad.data(), g.center_grad.size()) > Fixture::kClip;
    contexts_clipped += Norm(block.data(), block.size()) > Fixture::kClip;
  }
  EXPECT_GT(centers_clipped, 0u);
  EXPECT_LT(centers_clipped, f.batch.size());
  EXPECT_GT(contexts_clipped, 0u);
  EXPECT_LT(contexts_clipped, f.batch.size());
}

/// The fixture's samples as a sharded source of `per_shard` samples per
/// shard, whose TryPinShard fails on its `fail_on_pin`-th call (1-based;
/// 0 never fails).
class FlakySource final : public SampleSource {
 public:
  FlakySource(const Fixture& f, size_t per_shard)
      : inner_(f.sampler.All(), f.weights), per_shard_(per_shard) {}

  size_t size() const override { return inner_.size(); }
  size_t NegativesCount(uint32_t idx) const override {
    return inner_.NegativesCount(idx);
  }
  size_t num_shards() const override {
    return (inner_.size() + per_shard_ - 1) / per_shard_;
  }
  size_t ShardOf(uint32_t idx) const override { return idx / per_shard_; }
  Status TryPinShard(size_t /*s*/) override {
    if (++pins_ == fail_on_pin) return IoError("injected pin failure");
    return OkStatus();
  }
  SampleView Get(uint32_t idx) const override { return inner_.Get(idx); }

  size_t pins() const { return pins_; }
  size_t fail_on_pin = 0;

 private:
  InMemorySampleSource inner_;
  size_t per_shard_;
  size_t pins_ = 0;
};

TEST(BatchGradientEngineTest, FailedPinLeavesLossAndAccumulatorsUntouched) {
  const Fixture f;
  Rng rng(41);
  const std::vector<uint32_t> second = f.sampler.SampleBatch(40, rng);
  for (size_t threads : {1UL, 4UL}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    // Reference: both batches accumulated without a fault.
    BatchGradientEngine clean(f.Options(threads, true), f.weights);
    FlakySource clean_source(f, /*per_shard=*/16);
    double clean_loss = 0.0;
    ASSERT_TRUE(
        clean.TryAccumulateBatch(f.model, clean_source, f.batch, &clean_loss)
            .ok());
    ASSERT_TRUE(
        clean.TryAccumulateBatch(f.model, clean_source, second, &clean_loss)
            .ok());

    BatchGradientEngine engine(f.Options(threads, true), f.weights);
    FlakySource source(f, /*per_shard=*/16);
    double loss = 0.0;
    ASSERT_TRUE(engine.TryAccumulateBatch(f.model, source, f.batch, &loss).ok());
    const std::vector<uint32_t> in_before = engine.grad_in().touched();
    const std::vector<uint32_t> out_before = engine.grad_out().touched();

    // The second batch's second shard group fails to pin.
    source.fail_on_pin = source.pins() + 2;
    loss = -1.0;
    const Status status =
        engine.TryAccumulateBatch(f.model, source, second, &loss);
    EXPECT_EQ(status.code(), StatusCode::kIoError);
    EXPECT_EQ(source.pins(), source.fail_on_pin);
    EXPECT_EQ(loss, -1.0);
    EXPECT_EQ(engine.grad_in().touched(), in_before);
    EXPECT_EQ(engine.grad_out().touched(), out_before);

    // Once the fault clears, retrying the batch gives the clean result.
    source.fail_on_pin = 0;
    ASSERT_TRUE(engine.TryAccumulateBatch(f.model, source, second, &loss).ok());
    EXPECT_EQ(loss, clean_loss);
    EXPECT_TRUE(SameBits(engine.grad_in(), clean.grad_in()));
    EXPECT_TRUE(SameBits(engine.grad_out(), clean.grad_out()));
  }
}

/// `inner`'s samples plus a hand-built one at index inner.size(), which the
/// sampler would not draw; it reports shard 0 and reads no pinned shard.
class PlusOneSource final : public SampleSource {
 public:
  PlusOneSource(SampleSource& inner, const Subgraph& extra, double weight)
      : inner_(inner), extra_(extra), weight_(weight) {}

  size_t size() const override { return inner_.size() + 1; }
  size_t NegativesCount(uint32_t idx) const override {
    return idx == inner_.size() ? extra_.negatives.size()
                                : inner_.NegativesCount(idx);
  }
  size_t num_shards() const override { return inner_.num_shards(); }
  size_t ShardOf(uint32_t idx) const override {
    return idx == inner_.size() ? 0 : inner_.ShardOf(idx);
  }
  Status TryPinShard(size_t s) override { return inner_.TryPinShard(s); }
  SampleView Get(uint32_t idx) const override {
    if (idx != inner_.size()) return inner_.Get(idx);
    return {extra_.center, extra_.context, weight_, extra_.negatives};
  }

 private:
  SampleSource& inner_;
  const Subgraph& extra_;
  double weight_;
};

// Rows that repeat — within a sample, within a batch, and across two batches
// accumulated before one ApplyUpdate — get the serial reference's bits, from
// the resident source and from a sharded one.
TEST(BatchGradientEngineTest, MatchesSerialReferenceBitwise) {
  const Fixture f;
  // A sample whose negatives repeat w_out rows: its first negative twice,
  // then its own context.
  const SubgraphTable::Row row = f.sampler.All()[f.batch[0]];
  const Subgraph repeating{
      row.center,
      row.context,
      {row.negatives[0], row.negatives[0], row.context, row.negatives[1]},
      f.batch[0]};
  // The second batch lands on slots that the first created, and ends with
  // the hand-built sample.
  Rng rng(41);
  std::vector<uint32_t> second = f.sampler.SampleBatch(40, rng);
  second.push_back(static_cast<uint32_t>(f.sampler.All().size()));

  InMemorySampleSource resident(f.sampler.All(), f.weights);
  FlakySource sharded(f, /*per_shard=*/16);
  for (bool clip : {false, true}) {
    for (size_t threads : {1UL, 2UL, 4UL}) {
      for (SampleSource* inner : {static_cast<SampleSource*>(&resident),
                                  static_cast<SampleSource*>(&sharded)}) {
        SCOPED_TRACE(std::to_string(threads) + " threads, clip=" +
                     std::to_string(clip) + ", " +
                     std::to_string(inner->num_shards()) + " shards");
        PlusOneSource source(*inner, repeating, f.weights[f.batch[0]]);
        BatchGradientEngine engine(f.Options(threads, clip), f.weights);
        SparseRowGrad ref_in(f.graph.num_nodes(), f.model.dim());
        SparseRowGrad ref_out(f.graph.num_nodes(), f.model.dim());
        for (const std::vector<uint32_t>& batch : {f.batch, second}) {
          const double ref_loss = SerialReference(
              f.model, source, batch, clip, Fixture::kClip, ref_in, ref_out);
          double loss = 0.0;
          ASSERT_TRUE(
              engine.TryAccumulateBatch(f.model, source, batch, &loss).ok());
          EXPECT_EQ(loss, ref_loss);
          EXPECT_TRUE(SameBits(engine.grad_in(), ref_in));
          EXPECT_TRUE(SameBits(engine.grad_out(), ref_out));
        }
      }
    }
  }
}

TEST(BatchGradientEngineTest, NonZeroPerturbationThreadCountInvariant) {
  const Fixture f;
  Matrix base_in, base_out;
  for (size_t threads : {1UL, 2UL, 4UL}) {
    BatchGradientEngine engine(f.Options(threads, true), f.weights);
    f.Accumulate(engine, f.model, f.batch);
    Rng noise_rng(777);
    // sepriv-privflow: allow(unaccounted-sanitizer): unit test exercises the mechanism primitive directly; no privacy claim on its output
    engine.PerturbNonZero(2.5, noise_rng);
    const Matrix in = DenseCopy(engine.grad_in(), f);
    const Matrix out = DenseCopy(engine.grad_out(), f);
    if (threads == 1) {
      base_in = in;
      base_out = out;
    } else {
      EXPECT_EQ(MaxAbsDiff(in, base_in), 0.0) << threads << " threads";
      EXPECT_EQ(MaxAbsDiff(out, base_out), 0.0) << threads << " threads";
    }
  }
}

// Eq. (9) end to end: after accumulate, perturb and apply, every model row
// outside touched() keeps its exact bits, and every touched row moved.
TEST(BatchGradientEngineTest, NonZeroPerturbationOnlyTouchesTouchedRows) {
  const Fixture f;
  BatchGradientEngine engine(f.Options(2, true), f.weights);
  f.Accumulate(engine, f.model, f.batch);
  const size_t n = f.graph.num_nodes();
  std::vector<bool> in_touched(n, false), out_touched(n, false);
  for (uint32_t r : engine.grad_in().touched()) in_touched[r] = true;
  for (uint32_t r : engine.grad_out().touched()) out_touched[r] = true;
  ASSERT_LT(engine.grad_out().touched().size(), n);  // some rows untouched
  Rng noise_rng(5);
  // sepriv-privflow: allow(unaccounted-sanitizer): unit test exercises the mechanism primitive directly; no privacy claim on its output
  engine.PerturbNonZero(1.0, noise_rng);
  SkipGramModel model = f.model;
  engine.ApplyUpdate(model, 0.5);
  const auto check = [&](const Matrix& before, const Matrix& after,
                         const std::vector<bool>& touched, const char* name) {
    for (size_t v = 0; v < n; ++v) {
      const auto a = before.Row(v);
      const auto b = after.Row(v);
      const bool same = std::equal(a.begin(), a.end(), b.begin(), b.end(),
                                   [](double x, double y) {
                                     return std::memcmp(&x, &y, sizeof(x)) == 0;
                                   });
      if (touched[v]) {
        EXPECT_FALSE(same) << name << " touched row " << v << " not updated";
      } else {
        EXPECT_TRUE(same) << name << " untouched row " << v << " changed";
      }
    }
  };
  check(f.model.w_in, model.w_in, in_touched, "w_in");
  check(f.model.w_out, model.w_out, out_touched, "w_out");
}

// Eq. (9) and Eq. (6) draw fresh noise on every call: each perturbation
// consumes one draw of the caller's Rng as its key. Two calls on the same
// input must add uncorrelated noise to the same entries; a key that ignored
// the draw would add the same noise again (ρ = 1).
TEST(BatchGradientEngineTest, EachPerturbationDrawsFreshNoise) {
  const Fixture f;
  BatchGradientEngine engine(f.Options(2, true), f.weights);
  Rng noise_rng(13);
  const auto expect_uncorrelated = [](const std::vector<double>& first,
                                      const std::vector<double>& second,
                                      const char* mechanism) {
    ASSERT_EQ(first.size(), second.size()) << mechanism;
    ASSERT_GT(first.size(), 1000u) << mechanism;
    EXPECT_LT(std::abs(PearsonCorrelation(first, second)), 0.15) << mechanism;
  };

  // Eq. (9): a private step of the fixture batch at η = 0 leaves the model
  // as it was, so the next step's slab holds the same clipped gradients.
  // Both accumulators' slot rows, back to back:
  const auto slabs = [&] {
    std::vector<double> v;
    for (const SparseRowGrad* g : {&engine.grad_in(), &engine.grad_out()}) {
      for (size_t s = 0; s < g->touched().size(); ++s) {
        const auto row = g->SlotRow(static_cast<uint32_t>(s));
        v.insert(v.end(), row.begin(), row.end());
      }
    }
    return v;
  };
  const auto nonzero_noise = [&] {
    f.Accumulate(engine, f.model, f.batch);
    std::vector<double> noise = slabs();
    // sepriv-privflow: allow(unaccounted-sanitizer): unit test exercises the mechanism primitive directly; no privacy claim on its output
    engine.PerturbNonZero(1.0, noise_rng);
    const std::vector<double> noised = slabs();
    for (size_t i = 0; i < noise.size(); ++i) noise[i] = noised[i] - noise[i];
    SkipGramModel model = f.model;
    engine.ApplyUpdate(model, 0.0);  // releases the slab
    return noise;
  };
  const std::vector<double> nonzero_first = nonzero_noise();
  expect_uncorrelated(nonzero_first, nonzero_noise(), "Eq. 9");

  // Eq. (6): the noise lands on a fresh copy of the model, at η = 1.
  const auto naive_noise = [&] {
    SkipGramModel model = f.model;
    // sepriv-privflow: allow(unaccounted-sanitizer): unit test exercises the mechanism primitive directly; no privacy claim on its output
    engine.PerturbNaiveIntoModel(model, 1.0, 1.0, noise_rng);
    std::vector<double> noise;
    const auto append = [&](const Matrix& after, const Matrix& before) {
      for (size_t i = 0; i < before.size(); ++i) {
        noise.push_back(after.data()[i] - before.data()[i]);
      }
    };
    append(model.w_in, f.model.w_in);
    append(model.w_out, f.model.w_out);
    return noise;
  };
  const std::vector<double> naive_first = naive_noise();
  expect_uncorrelated(naive_first, naive_noise(), "Eq. 6");
}

TEST(BatchGradientEngineTest, NaivePerturbationThreadCountInvariant) {
  const Fixture f;
  Matrix base_in;
  for (size_t threads : {1UL, 2UL, 4UL}) {
    BatchGradientEngine engine(f.Options(threads, true), f.weights);
    SkipGramModel model = f.model;  // perturbed in place
    Rng noise_rng(888);
    // sepriv-privflow: allow(unaccounted-sanitizer): unit test exercises the mechanism primitive directly; no privacy claim on its output
    engine.PerturbNaiveIntoModel(model, 0.1, 3.0, noise_rng);
    EXPECT_GT(MaxAbsDiff(model.w_in, f.model.w_in), 0.0);  // noise landed
    if (threads == 1) {
      base_in = model.w_in;
    } else {
      EXPECT_EQ(MaxAbsDiff(model.w_in, base_in), 0.0) << threads << " threads";
    }
  }
}

TEST(BatchGradientEngineTest, ApplyUpdateSubtractsScaledGradientAndClears) {
  const Fixture f;
  BatchGradientEngine engine(f.Options(3, false), f.weights);
  f.Accumulate(engine, f.model, f.batch);
  const Matrix grads_in = DenseCopy(engine.grad_in(), f);
  const Matrix grads_out = DenseCopy(engine.grad_out(), f);

  SkipGramModel model = f.model;
  const double lr = 0.25;
  engine.ApplyUpdate(model, lr);

  for (size_t v = 0; v < f.graph.num_nodes(); ++v) {
    for (size_t d = 0; d < f.model.dim(); ++d) {
      EXPECT_DOUBLE_EQ(model.w_in(v, d),
                       f.model.w_in(v, d) - lr * grads_in(v, d));
    }
  }
  EXPECT_TRUE(engine.grad_in().touched().empty());
  EXPECT_TRUE(engine.grad_out().touched().empty());
  // Cleared means zeroed: the same batch accumulates to the same gradients
  // again, not to twice them.
  f.Accumulate(engine, f.model, f.batch);
  EXPECT_EQ(MaxAbsDiff(DenseCopy(engine.grad_in(), f), grads_in), 0.0);
  EXPECT_EQ(MaxAbsDiff(DenseCopy(engine.grad_out(), f), grads_out), 0.0);
}

// The accumulators cost O(|V| + touched·r), not O(|V|·r): a 2·10^5-node,
// r=128 engine and one private step stay far below the 410 MB that two
// dense |V|×r accumulators would take. The batch comes from a small graph
// whose ids are a prefix of the engine's node range.
TEST(BatchGradientEngineTest, MemoryIsBoundedByTouchedRows) {
  const Fixture f(/*seed=*/3, /*dim=*/128);
  BatchGradientEngineOptions opts = f.Options(2, true);
  opts.num_nodes = 200000;
  const size_t rss_before = CurrentRssBytes();
  if (rss_before == 0) GTEST_SKIP() << "no /proc/self/status";
  BatchGradientEngine engine(opts, f.weights);
  f.Accumulate(engine, f.model, f.batch);
  Rng noise_rng(6);
  // sepriv-privflow: allow(unaccounted-sanitizer): unit test exercises the mechanism primitive directly; no privacy claim on its output
  engine.PerturbNonZero(1.0, noise_rng);
  SkipGramModel model = f.model;
  engine.ApplyUpdate(model, 0.1);
  const double growth_mb = (static_cast<double>(CurrentRssBytes()) -
                            static_cast<double>(rss_before)) /
                           (1024.0 * 1024.0);
  EXPECT_LT(growth_mb, 32.0);
}

TEST(BatchGradientEngineTest, ScratchReuseAcrossBatchesStaysCorrect) {
  // Repeated TryAccumulateBatch/ApplyUpdate cycles must not leak state
  // between batches (the scratch slots are reused, the accumulators cleared).
  const Fixture f;
  BatchGradientEngine a(f.Options(1, true), f.weights);
  BatchGradientEngine b(f.Options(4, true), f.weights);
  SkipGramModel model_a = f.model;
  SkipGramModel model_b = f.model;
  Rng rng_a(99), rng_b(99);
  for (int round = 0; round < 5; ++round) {
    const auto batch = [&] {
      Rng batch_rng(1000 + round);
      return f.sampler.SampleBatch(24, batch_rng);
    }();
    const double la = f.Accumulate(a, model_a, batch);
    const double lb = f.Accumulate(b, model_b, batch);
    EXPECT_EQ(la, lb);
    // sepriv-privflow: allow(unaccounted-sanitizer): unit test exercises the mechanism primitive directly; no privacy claim on its output
    a.PerturbNonZero(0.8, rng_a);
    b.PerturbNonZero(0.8, rng_b);
    a.ApplyUpdate(model_a, 0.1);
    b.ApplyUpdate(model_b, 0.1);
    EXPECT_EQ(MaxAbsDiff(model_a.w_in, model_b.w_in), 0.0) << "round " << round;
    EXPECT_EQ(MaxAbsDiff(model_a.w_out, model_b.w_out), 0.0);
  }
}

TEST(SgnsGradientIntoTest, MatchesAllocatingForm) {
  const Fixture f;
  for (uint32_t idx : f.batch) {
    const Subgraph s = f.SampleAt(idx);
    const double pij = f.weights[idx];
    const SgnsGradient g = ComputeSgnsGradient(f.model, s, pij, 0.4);

    const size_t dim = f.model.dim();
    const size_t contexts = s.negatives.size() + 1;
    std::vector<double> center(dim);
    std::vector<NodeId> nodes(contexts);
    std::vector<double> rows(contexts * dim);
    const double loss =
        ComputeSgnsGradientInto(f.model, s.center, s.context, s.negatives, pij,
                                0.4, center, nodes, rows);

    EXPECT_EQ(loss, g.loss);
    EXPECT_EQ(center, g.center_grad);
    ASSERT_EQ(g.context_grads.size(), contexts);
    for (size_t k = 0; k < contexts; ++k) {
      EXPECT_EQ(nodes[k], g.context_grads[k].first);
      for (size_t d = 0; d < dim; ++d) {
        EXPECT_EQ(rows[k * dim + d], g.context_grads[k].second[d]);
      }
    }
  }
}

}  // namespace
}  // namespace sepriv
