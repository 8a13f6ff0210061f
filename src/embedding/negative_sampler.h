// sepriv-lint: allow(test-only-module): only tests/random_walk_test.cc reaches it; ROADMAP Direction 7 stage 2 deletes it together with random_walk
// Degree-proportional negative sampling, P_n(v) ∝ d_v^power: the classic
// design of prior work (Eq. 14) that §IV-B ("Comparison with Prior Works")
// contrasts with Theorem 3's uniform non-neighbour negatives. SE-PrivGEmb
// draws its own negatives in SubgraphGenerator (Algorithm 1); no library
// code uses this sampler.

#ifndef SEPRIVGEMB_EMBEDDING_NEGATIVE_SAMPLER_H_
#define SEPRIVGEMB_EMBEDDING_NEGATIVE_SAMPLER_H_

#include <cmath>
#include <vector>

#include "graph/graph.h"
#include "util/alias_table.h"
#include "util/rng.h"

namespace sepriv {

/// P_n(v) ∝ d_v^power (word2vec uses power = 0.75; the analysis of Eq. 14
/// uses power = 1). Does not exclude neighbours — matching prior work.
class DegreeNegativeSampler {
 public:
  DegreeNegativeSampler(const Graph& graph, double power = 1.0) {
    std::vector<double> w(graph.num_nodes());
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      w[v] = std::pow(static_cast<double>(graph.Degree(v)), power);
    }
    table_.Build(w);
  }

  NodeId Sample(Rng& rng) const { return table_.Sample(rng); }
  const AliasTable& table() const { return table_; }

 private:
  AliasTable table_;
};

}  // namespace sepriv

#endif  // SEPRIVGEMB_EMBEDDING_NEGATIVE_SAMPLER_H_
