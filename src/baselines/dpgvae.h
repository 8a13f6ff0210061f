// DPGVAE baseline (Yang et al., IJCAI'21 "Secure deep graph generation with
// link differential privacy", VAE branch), reduced re-implementation.
//
// Architecture: one-hop GCN encoder over random features producing (μ,
// logσ²), reparameterised z, inner-product edge decoder with BCE + KL loss.
// Training uses clipped, noised gradients with the same RDP accountant as
// SE-PrivGEmb; the premature-convergence behaviour at small ε that the paper
// reports arises from the budget-implied epoch cap. Embedding = μ.

#ifndef SEPRIVGEMB_BASELINES_DPGVAE_H_
#define SEPRIVGEMB_BASELINES_DPGVAE_H_

#include "baselines/embedder.h"
#include "nn/linear.h"
#include "util/rng.h"

namespace sepriv {

class DpgVaeEmbedder : public GraphEmbedder {
 public:
  explicit DpgVaeEmbedder(const EmbedderOptions& opts) : opts_(opts) {}
  std::string Name() const override { return "DPGVAE"; }
  EmbedderResult Embed(const Graph& graph) override;

 private:
  EmbedderOptions opts_;
};

/// DPGVAE's mechanism, run on the encoder's gradient every epoch: clips the
/// joint L2 norm of the three layers' gradients to C, then adds
/// N(0, (C·σ/2B)²) to every entry, with (C, σ, B) = (o.clip_threshold,
/// o.noise_multiplier, o.batch_size); the decoder loss is a mean over B
/// edges and B non-edges. Public so that a test can read the noise alone,
/// on a zeroed gradient.
SEPRIV_DP_SANITIZER
void PerturbEncoderGrads(Linear& enc1, Linear& enc_mu, Linear& enc_lv,
                         const EmbedderOptions& o, Rng& rng);

}  // namespace sepriv

#endif  // SEPRIVGEMB_BASELINES_DPGVAE_H_
