// Skip-gram model state (paper Fig. 1): input embedding matrix Win and
// output (context) matrix Wout, both |V| x r. Because the input layer is a
// one-hot encoding, a training pair touches exactly one row of Win and, with
// negative sampling, k+1 rows of Wout — the sparsity that the non-zero
// perturbation mechanism (Eq. 9) exploits.

#ifndef SEPRIVGEMB_EMBEDDING_SKIPGRAM_H_
#define SEPRIVGEMB_EMBEDDING_SKIPGRAM_H_

#include <cstddef>

#include "graph/graph.h"
#include "linalg/matrix.h"
#include "util/rng.h"

namespace sepriv {

struct SkipGramModel {
  Matrix w_in;   // |V| x r, the published embedding (Definition 5)
  Matrix w_out;  // |V| x r, context vectors

  SkipGramModel() = default;

  /// Both matrices ~ U(-0.5/r, 0.5/r). word2vec starts Wout at 0 instead,
  /// and learns from there: at Wout = 0 the gradient of a Wout row is
  /// (σ(0) − y)·v_i, which is not zero. The uniform Wout stays because
  /// changing the init would move every pinned digest. Win, then Wout,
  /// from consecutive ranges of `rng`'s stream; each is filled in parallel
  /// as its first touch (Matrix::Uniform).
  SkipGramModel(size_t num_nodes, size_t dim, Rng& rng) {
    const double a = 0.5 / static_cast<double>(dim);
    w_in = Matrix::Uniform(num_nodes, dim, rng, -a, a);
    w_out = Matrix::Uniform(num_nodes, dim, rng, -a, a);
  }

  size_t num_nodes() const { return w_in.rows(); }
  size_t dim() const { return w_in.cols(); }

  /// x_ij = v_i · v_j, the model's proximity estimate (Theorem 3).
  double Score(NodeId i, NodeId j) const { return w_in.RowDot(i, w_out, j); }
};

}  // namespace sepriv

#endif  // SEPRIVGEMB_EMBEDDING_SKIPGRAM_H_
