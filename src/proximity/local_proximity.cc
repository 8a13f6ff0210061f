#include "proximity/local_proximity.h"

#include <cmath>

namespace sepriv {
namespace {

/// Applies `fn(w)` to every common neighbour w of i and j, accumulating.
template <typename Fn>
double AccumulateCommon(const Graph& g, NodeId i, NodeId j, Fn fn) {
  const auto a = g.Neighbors(i);
  const auto b = g.Neighbors(j);
  size_t x = 0, y = 0;
  double acc = 0.0;
  while (x < a.size() && y < b.size()) {
    if (a[x] < b[y]) {
      ++x;
    } else if (a[x] > b[y]) {
      ++y;
    } else {
      acc += fn(a[x]);
      ++x;
      ++y;
    }
  }
  return acc;
}

}  // namespace

double CommonNeighborsProximity::At(NodeId i, NodeId j) const {
  return static_cast<double>(graph_.CommonNeighborCount(i, j));
}

double JaccardProximity::At(NodeId i, NodeId j) const {
  const double cn = static_cast<double>(graph_.CommonNeighborCount(i, j));
  const double un = static_cast<double>(graph_.Degree(i)) +
                    static_cast<double>(graph_.Degree(j)) - cn;
  return un > 0.0 ? cn / un : 0.0;
}

double AdamicAdarProximity::At(NodeId i, NodeId j) const {
  return AccumulateCommon(graph_, i, j, [this](NodeId w) {
    // A common neighbour of two DISTINCT nodes has degree >= 2; for self
    // pairs (i == j) a degree-1 neighbour would divide by log 1 = 0, so the
    // standard convention of skipping degree-<2 nodes is applied.
    const size_t deg = graph_.Degree(w);
    return deg >= 2 ? 1.0 / std::log(static_cast<double>(deg)) : 0.0;
  });
}

double ResourceAllocationProximity::At(NodeId i, NodeId j) const {
  return AccumulateCommon(graph_, i, j, [this](NodeId w) {
    return 1.0 / static_cast<double>(graph_.Degree(w));
  });
}

}  // namespace sepriv
