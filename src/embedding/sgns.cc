#include "embedding/sgns.h"

#include "linalg/kernels.h"
#include "util/check.h"
#include "util/math_util.h"

namespace sepriv {

double SgnsLoss(const SkipGramModel& model, const Subgraph& s, double w_pos,
                double w_neg) {
  double loss = -w_pos * LogSigmoid(model.Score(s.center, s.context));
  for (NodeId n : s.negatives) {
    loss -= w_neg * LogSigmoid(-model.Score(s.center, n));
  }
  return loss;
}

double ComputeSgnsGradientInto(const SkipGramModel& model, NodeId center,
                               NodeId context,
                               std::span<const NodeId> negatives, double w_pos,
                               double w_neg, std::span<double> center_grad,
                               std::span<NodeId> context_nodes,
                               std::span<double> context_grads) {
  const size_t dim = model.dim();
  const size_t contexts = negatives.size() + 1;
  SEPRIV_DCHECK(center_grad.size() == dim);
  SEPRIV_DCHECK(context_nodes.size() >= contexts);
  SEPRIV_DCHECK(context_grads.size() >= contexts * dim);

  for (size_t d = 0; d < dim; ++d) center_grad[d] = 0.0;
  const auto vi = model.w_in.Row(center);

  double loss = 0.0;
  auto accumulate = [&](size_t slot, NodeId ctx, double indicator,
                        double weight) {
    const auto vn = model.w_out.Row(ctx);
    // Fused kernel: x = vi·vn, center_grad += coeff·vn (Eq. 7) and the
    // slot's context row = coeff·vi (Eq. 8) in one pass.
    const double x = kernels::SgnsAccumulate(
        vi.data(), vn.data(), dim, weight, indicator, center_grad.data(),
        context_grads.data() + slot * dim);
    context_nodes[slot] = ctx;
    // Loss bookkeeping.
    if (indicator > 0.5) {
      loss -= weight * LogSigmoid(x);
    } else {
      loss -= weight * LogSigmoid(-x);
    }
  };

  accumulate(0, context, 1.0, w_pos);
  for (size_t k = 0; k < negatives.size(); ++k) {
    accumulate(k + 1, negatives[k], 0.0, w_neg);
  }
  return loss;
}

SgnsGradient ComputeSgnsGradient(const SkipGramModel& model, const Subgraph& s,
                                 double w_pos, double w_neg) {
  const size_t dim = model.dim();
  const size_t contexts = s.negatives.size() + 1;
  SgnsGradient g;
  g.center = s.center;
  g.center_grad.assign(dim, 0.0);

  std::vector<NodeId> nodes(contexts);
  std::vector<double> rows(contexts * dim);
  g.loss = ComputeSgnsGradientInto(model, s.center, s.context, s.negatives,
                                   w_pos, w_neg, g.center_grad, nodes, rows);

  g.context_grads.reserve(contexts);
  for (size_t k = 0; k < contexts; ++k) {
    g.context_grads.emplace_back(
        nodes[k],
        std::vector<double>(rows.begin() + static_cast<ptrdiff_t>(k * dim),
                            rows.begin() + static_cast<ptrdiff_t>((k + 1) * dim)));
  }
  return g;
}

}  // namespace sepriv
