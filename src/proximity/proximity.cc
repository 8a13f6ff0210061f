#include "proximity/proximity.h"

#include <algorithm>
#include <limits>

#include "proximity/local_proximity.h"
#include "proximity/walk_proximity.h"
#include "util/check.h"

namespace sepriv {

void ProximityFinalizer::Accumulate(double p) {
  SEPRIV_CHECK(!sealed_, "ProximityFinalizer::Accumulate after Seal");
  if (count_ == 0) min_pos_ = std::numeric_limits<double>::infinity();
  ++count_;
  if (p > 0.0) {
    min_pos_ = std::min(min_pos_, p);
  } else {
    has_nonpositive_ = true;
  }
  max_val_ = std::max(max_val_, p);
}

void ProximityFinalizer::Seal() {
  SEPRIV_CHECK(!sealed_, "ProximityFinalizer sealed twice");
  sealed_ = true;
  if (count_ == 0) return;  // empty table: all-zero summary, like the legacy path
  // Floor zero proximities (possible for sampled estimators) at half the
  // smallest positive value so no edge is silently dropped from the loss.
  double min_pos = min_pos_;
  if (!std::isfinite(min_pos)) min_pos = 1.0;  // fully degenerate provider
  floor_ = 0.5 * min_pos;
  min_positive_ = has_nonpositive_ ? floor_ : min_pos;
  max_value_ = std::max(max_val_, min_positive_);
  inv_max_ = 1.0 / max_value_;
  normalized_min_positive_ = min_positive_ * inv_max_;
}

EdgeProximity FinalizeEdgeProximities(const std::vector<double>& forward,
                                      const std::vector<double>& backward) {
  SEPRIV_CHECK(forward.size() == backward.size(),
               "forward/backward pass size mismatch: %zu vs %zu",
               forward.size(), backward.size());
  EdgeProximity out;
  if (forward.empty()) return out;

  ProximityFinalizer fin;
  for (size_t e = 0; e < forward.size(); ++e)
    fin.Accumulate(0.5 * (forward[e] + backward[e]));
  fin.Seal();

  out.values.resize(forward.size());
  out.normalized.resize(forward.size());
  for (size_t e = 0; e < forward.size(); ++e) {
    const double p = 0.5 * (forward[e] + backward[e]);
    out.values[e] = fin.Value(p);
    out.normalized[e] = fin.Normalized(p);
  }
  out.min_positive = fin.min_positive();
  out.max_value = fin.max_value();
  out.normalized_min_positive = fin.normalized_min_positive();
  return out;
}

EdgeProximity ComputeEdgeProximities(const Graph& graph,
                                     const ProximityProvider& provider) {
  const auto& edges = graph.Edges();

  // Pass 1: forward direction grouped by u (row-cache friendly).
  std::vector<double> forward(edges.size()), backward(edges.size());
  for (size_t e = 0; e < edges.size(); ++e)
    forward[e] = provider.At(edges[e].u, edges[e].v);
  // Pass 2: reverse direction grouped by v. Canonical edges are sorted by u,
  // so group by v via an index sort to keep the row cache warm.
  std::vector<size_t> by_v(edges.size());
  for (size_t e = 0; e < edges.size(); ++e) by_v[e] = e;
  std::sort(by_v.begin(), by_v.end(), [&edges](size_t a, size_t b) {
    return edges[a].v != edges[b].v ? edges[a].v < edges[b].v
                                    : edges[a].u < edges[b].u;
  });
  for (size_t idx : by_v)
    backward[idx] = provider.At(edges[idx].v, edges[idx].u);

  return FinalizeEdgeProximities(forward, backward);
}

std::unique_ptr<ProximityProvider> MakeProximity(ProximityKind kind,
                                                 const Graph& graph,
                                                 const ProximityOptions& opts) {
  switch (kind) {
    case ProximityKind::kCommonNeighbors:
      return std::make_unique<CommonNeighborsProximity>(graph);
    case ProximityKind::kJaccard:
      return std::make_unique<JaccardProximity>(graph);
    case ProximityKind::kPreferentialAttachment:
      return std::make_unique<DegreeVectorProximity>(graph.DegreeVector(),
                                                     graph.num_edges());
    case ProximityKind::kAdamicAdar:
      return std::make_unique<AdamicAdarProximity>(graph);
    case ProximityKind::kResourceAllocation:
      return std::make_unique<ResourceAllocationProximity>(graph);
    case ProximityKind::kKatz:
      return std::make_unique<KatzProximity>(graph, opts.katz_max_length,
                                             opts.katz_beta);
    case ProximityKind::kPersonalizedPageRank:
      return std::make_unique<PersonalizedPageRankProximity>(
          graph, opts.ppr_alpha, opts.ppr_iterations);
    case ProximityKind::kDeepWalk:
      return std::make_unique<DeepWalkProximity>(graph, opts.dw_window);
    case ProximityKind::kDeepWalkSampled:
      return std::make_unique<SampledDeepWalkProximity>(
          graph, opts.dw_window, opts.dw_walks_per_node, opts.seed);
  }
  SEPRIV_CHECK(false, "unknown proximity kind");
  return nullptr;
}

std::string ProximityKindName(ProximityKind kind) {
  switch (kind) {
    case ProximityKind::kCommonNeighbors: return "common_neighbors";
    case ProximityKind::kJaccard: return "jaccard";
    case ProximityKind::kPreferentialAttachment: return "degree";
    case ProximityKind::kAdamicAdar: return "adamic_adar";
    case ProximityKind::kResourceAllocation: return "resource_allocation";
    case ProximityKind::kKatz: return "katz";
    case ProximityKind::kPersonalizedPageRank: return "ppr";
    case ProximityKind::kDeepWalk: return "deepwalk";
    case ProximityKind::kDeepWalkSampled: return "deepwalk_sampled";
  }
  return "unknown";
}

const std::vector<ProximityKind>& AllProximityKinds() {
  static const std::vector<ProximityKind> kKinds = {
      ProximityKind::kCommonNeighbors,
      ProximityKind::kJaccard,
      ProximityKind::kPreferentialAttachment,
      ProximityKind::kAdamicAdar,
      ProximityKind::kResourceAllocation,
      ProximityKind::kKatz,
      ProximityKind::kPersonalizedPageRank,
      ProximityKind::kDeepWalk,
      ProximityKind::kDeepWalkSampled,
  };
  return kKinds;
}

}  // namespace sepriv
