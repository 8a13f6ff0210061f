// sepriv-lint: allow(test-only-module): only tests/random_walk_test.cc reaches it; ROADMAP Direction 7 stage 2 deletes it together with DegreeNegativeSampler
// Uniform random-walk engine (DeepWalk [9] style), with node2vec-style
// biased walks under the (p, q) return/in-out parameters. No library code
// walks with it: the sampled DeepWalk proximity runs its own walks.

#ifndef SEPRIVGEMB_EMBEDDING_RANDOM_WALK_H_
#define SEPRIVGEMB_EMBEDDING_RANDOM_WALK_H_

#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace sepriv {

class RandomWalkEngine {
 public:
  explicit RandomWalkEngine(const Graph& graph) : graph_(graph) {}

  /// Uniform walk of at most `length` steps from `start` (shorter if a
  /// dangling node is reached). The returned sequence includes `start`.
  std::vector<NodeId> Walk(NodeId start, size_t length, Rng& rng) const;

  /// node2vec second-order walk: return parameter p, in-out parameter q
  /// (p = q = 1 reduces to the uniform walk).
  std::vector<NodeId> BiasedWalk(NodeId start, size_t length, double p,
                                 double q, Rng& rng) const;

  /// DeepWalk corpus: `walks_per_node` walks from every node, shuffled.
  std::vector<std::vector<NodeId>> Corpus(size_t walks_per_node, size_t length,
                                          Rng& rng) const;

 private:
  const Graph& graph_;
};

}  // namespace sepriv

#endif  // SEPRIVGEMB_EMBEDDING_RANDOM_WALK_H_
