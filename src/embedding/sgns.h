// Skip-gram-with-negative-sampling loss and analytic gradients for the
// structure-preference objective L_nov (paper Eq. 5, 7, 8).
//
// For a subgraph S = {(i, j)} ∪ {(i, n_1..n_k)} with positive weight w_pos
// (= p_ij) and per-negative weight w_neg:
//
//   L    = -w_pos·log σ(v_j·v_i) - w_neg·Σ_n log σ(-v_n·v_i)
//   ∂L/∂v_i   = Σ_{n=0..k} w_n (σ(v_n·v_i) - 1[n=0]) · v_n      (Eq. 7)
//   ∂L/∂v_n   = w_n (σ(v_n·v_i) - 1[n=0]) · v_i                 (Eq. 8)
//
// where n = 0 denotes the positive context j and w_0 = w_pos, w_{n>0} = w_neg.

#ifndef SEPRIVGEMB_EMBEDDING_SGNS_H_
#define SEPRIVGEMB_EMBEDDING_SGNS_H_

#include <span>
#include <utility>
#include <vector>

#include "embedding/skipgram.h"
#include "embedding/subgraph_sampler.h"

namespace sepriv {

/// Per-sample gradient in its natural sparse form.
struct SgnsGradient {
  double loss = 0.0;
  NodeId center = 0;
  std::vector<double> center_grad;  // dim entries; row `center` of ∂L/∂Win
  /// (row, grad) pairs for the k+1 touched rows of Wout. The positive
  /// context is entry 0. A node appearing twice (possible if a negative
  /// collides with another negative) contributes separate entries; callers
  /// accumulating into a matrix handle the merge naturally.
  std::vector<std::pair<NodeId, std::vector<double>>> context_grads;
};

/// Loss only (used by finite-difference gradient checks).
double SgnsLoss(const SkipGramModel& model, const Subgraph& s, double w_pos,
                double w_neg);

/// Loss + full sparse gradient.
SgnsGradient ComputeSgnsGradient(const SkipGramModel& model, const Subgraph& s,
                                 double w_pos, double w_neg);

/// Allocation-free form used by the batch-gradient hot path, on a raw
/// (center, context, negatives) triple: writes the gradient into
/// caller-owned scratch instead of heap-allocating per row.
///   center_grad    — dim() doubles, overwritten with row `center` of ∂L/∂Win;
///   context_nodes  — at least negatives+1 NodeIds; entry 0 is the positive;
///   context_grads  — (negatives+1)·dim() doubles, row-major, aligned with
///                    context_nodes.
/// Returns the per-sample loss. The number of context rows written is
/// negatives.size() + 1.
double ComputeSgnsGradientInto(const SkipGramModel& model, NodeId center,
                               NodeId context,
                               std::span<const NodeId> negatives, double w_pos,
                               double w_neg, std::span<double> center_grad,
                               std::span<NodeId> context_nodes,
                               std::span<double> context_grads);

}  // namespace sepriv

#endif  // SEPRIVGEMB_EMBEDDING_SGNS_H_
