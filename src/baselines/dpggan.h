// DPGGAN baseline (Yang et al., IJCAI'21, GAN branch), reduced
// re-implementation.
//
// Generator holds a trainable per-node embedding table decoded through
// σ(e_i·e_j); the discriminator is an MLP over concatenated pair embeddings
// classifying observed edges against generated non-edge pairs. Discriminator
// gradients are clipped and noised (link-DP style); the generator step is
// post-processing of the discriminator. Embedding = generator table.

#ifndef SEPRIVGEMB_BASELINES_DPGGAN_H_
#define SEPRIVGEMB_BASELINES_DPGGAN_H_

#include "baselines/embedder.h"
#include "nn/mlp.h"
#include "util/rng.h"

namespace sepriv {

class DpgGanEmbedder : public GraphEmbedder {
 public:
  explicit DpgGanEmbedder(const EmbedderOptions& opts) : opts_(opts) {}
  std::string Name() const override { return "DPGGAN"; }
  EmbedderResult Embed(const Graph& graph) override;

 private:
  EmbedderOptions opts_;
};

/// DPGGAN's mechanism, run on the discriminator's gradient at every step:
/// clips its joint L2 norm to C, then adds N(0, (C·σ/2B)²) to every entry,
/// with (C, σ, B) = (o.clip_threshold, o.noise_multiplier, o.batch_size);
/// the loss is a mean over B real and B generated pairs. Public so that a
/// test can read the noise alone, on a zeroed gradient.
SEPRIV_DP_SANITIZER
void PerturbDiscriminatorGrads(Mlp& disc, const EmbedderOptions& o, Rng& rng);

}  // namespace sepriv

#endif  // SEPRIVGEMB_BASELINES_DPGGAN_H_
