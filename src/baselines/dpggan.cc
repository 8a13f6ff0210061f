#include "baselines/dpggan.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dp/accountant.h"
#include "linalg/kernels.h"
#include "nn/mlp.h"
#include "util/check.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace sepriv {
namespace {

/// Builds the discriminator input row [e_u ; e_v].
void FillPairRow(Matrix& dst, size_t row, const Matrix& table, NodeId u,
                 NodeId v) {
  const auto eu = table.Row(u);
  const auto ev = table.Row(v);
  auto out = dst.Row(row);
  std::copy(eu.begin(), eu.end(), out.begin());
  std::copy(ev.begin(), ev.end(), out.begin() + table.cols());
}

}  // namespace

void PerturbDiscriminatorGrads(Mlp& disc, const EmbedderOptions& o,
                               Rng& rng) {
  const double inv = 1.0 / static_cast<double>(2 * o.batch_size);
  disc.ClipGrads(o.clip_threshold);
  disc.AddGradNoise(o.clip_threshold * o.noise_multiplier * inv, rng);
}

EmbedderResult DpgGanEmbedder::Embed(const Graph& graph) {
  const EmbedderOptions& o = opts_;
  const size_t n = graph.num_nodes();
  SEPRIV_CHECK(n >= 4 && graph.num_edges() >= 4, "graph too small for DPGGAN");
  Rng rng(o.seed);

  // Generator: trainable node-embedding table.
  Matrix table(n, o.dim);
  table.FillGaussian(rng, 0.0, 0.1);

  // Discriminator MLP: [2r] -> hidden -> 1.
  Mlp disc({2 * o.dim, o.hidden_dim, 1}, rng);

  const double q = std::min(
      1.0, static_cast<double>(o.batch_size) /
               static_cast<double>(graph.num_edges()));
  RdpAccountant acct(o.noise_multiplier, q);
  const size_t allowed =
      o.non_private ? o.max_epochs : acct.MaxSteps(o.epsilon, o.delta);

  EmbedderResult result;
  const auto& edges = graph.Edges();
  const size_t b = o.batch_size;

  for (size_t epoch = 0; epoch < o.max_epochs && epoch < allowed; ++epoch) {
    // ---- Discriminator step (the only step that touches real edges) ----
    Matrix d_in(2 * b, 2 * o.dim);
    Matrix targets(2 * b, 1);
    std::vector<std::pair<NodeId, NodeId>> fake_pairs(b);
    for (size_t i = 0; i < b; ++i) {
      const Edge& e = edges[rng.UniformInt(edges.size())];
      FillPairRow(d_in, i, table, e.u, e.v);
      targets(i, 0) = 1.0;
      NodeId u = static_cast<NodeId>(rng.UniformInt(n));
      NodeId v = static_cast<NodeId>(rng.UniformInt(n));
      if (u == v) v = static_cast<NodeId>((v + 1) % n);
      fake_pairs[i] = {u, v};
      FillPairRow(d_in, b + i, table, u, v);
      targets(b + i, 0) = 0.0;
    }
    disc.ZeroGrad();
    Matrix logits = disc.Forward(d_in);
    // BCE with logits over the 2b pairs.
    Matrix grad_logits(2 * b, 1);
    const double inv = 1.0 / static_cast<double>(2 * b);
    for (size_t i = 0; i < 2 * b; ++i) {
      grad_logits(i, 0) = (Sigmoid(logits(i, 0)) - targets(i, 0)) * inv;
    }
    disc.Backward(grad_logits);
    if (!o.non_private) PerturbDiscriminatorGrads(disc, o, rng);
    disc.AdamStep(o.learning_rate);

    // ---- Generator step: make fake pairs look real (post-processing) ----
    Matrix g_in(b, 2 * o.dim);
    for (size_t i = 0; i < b; ++i) {
      FillPairRow(g_in, i, table, fake_pairs[i].first, fake_pairs[i].second);
    }
    disc.ZeroGrad();
    Matrix g_logits = disc.Forward(g_in);
    Matrix g_grad(b, 1);
    const double ginv = 1.0 / static_cast<double>(b);
    for (size_t i = 0; i < b; ++i) {
      // Non-saturating generator loss: -log σ(D(fake)).
      g_grad(i, 0) = (Sigmoid(g_logits(i, 0)) - 1.0) * ginv;
    }
    const Matrix grad_in = disc.Backward(g_grad);
    // Route dL/d(pair input) back onto the embedding table.
    for (size_t i = 0; i < b; ++i) {
      const auto gi = grad_in.Row(i);
      kernels::Axpy(-o.learning_rate, gi.data(),
                    table.Row(fake_pairs[i].first).data(), o.dim);
      kernels::Axpy(-o.learning_rate, gi.data() + o.dim,
                    table.Row(fake_pairs[i].second).data(), o.dim);
    }

    if (!o.non_private) acct.Step();
    ++result.epochs_run;
  }

  result.embedding = std::move(table);
  result.spent_epsilon =
      o.non_private ? 0.0 : acct.GetEpsilon(o.delta).epsilon;
  result.noise_multiplier_used = o.noise_multiplier;
  return result;
}

}  // namespace sepriv
