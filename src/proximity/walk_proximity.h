// High-order proximity providers: Katz, personalized PageRank, and the
// DeepWalk walk-matrix proximity (exact and Monte-Carlo sampled).
//
// All three are "row oracles": the full dense proximity row of a source node
// is computed with sparse push operations over the CSR graph and cached, so
// querying pairs grouped by source (the edge-list order used by
// ComputeEdgeProximities) costs one row computation per distinct source.
//
// Cost model. A row costs its touched frontier — the pushes Σ deg(k) over
// the nodes k the walk reaches, plus one clear per touched entry — and
// nothing proportional to |V|. The exact providers push into ~2·|V| doubles
// of scratch (PushScratch) next to the |V|-double cached row; both are
// allocated once per instance and reused across rows, and each Clone() owns
// its own, so parallel workers never share them.

#ifndef SEPRIVGEMB_PROXIMITY_WALK_PROXIMITY_H_
#define SEPRIVGEMB_PROXIMITY_WALK_PROXIMITY_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "proximity/proximity.h"
#include "util/rng.h"

namespace sepriv {

/// Shared row-cache plumbing. Subclasses fill `row_` for a source node.
class RowCachedProximity : public ProximityProvider {
 public:
  explicit RowCachedProximity(const Graph& graph);
  double At(NodeId i, NodeId j) const override;

 protected:
  /// Fills row_[*] with the proximity row of `source`. row_ is zeroed on
  /// entry; implementations must record touched indices via Touch(). An
  /// implementation that uses Scratch() must return with it zeroed again
  /// (PushScratch::Reset), so the next row starts from a clean workspace.
  virtual void ComputeRow(NodeId source) const = 0;

  void Touch(NodeId j) const { touched_.push_back(j); }

  /// Dense push workspace of the exact walk providers: two |V|-length
  /// vectors and, for each, the list of its non-zero indices in insertion
  /// order. All zero (and both lists empty) between ComputeRow calls.
  struct PushScratch {
    std::vector<double> cur, next;
    std::vector<NodeId> cur_nz, next_nz;

    /// Zeroes `cur` through `cur_nz` and empties `cur_nz`. `next` and
    /// `next_nz` must already be clear, as they are after every completed
    /// push step.
    void Reset();
  };

  /// This instance's push workspace, sized to |V| on first use.
  PushScratch& Scratch() const;

  const Graph& graph_;
  mutable std::vector<double> row_;

 private:
  void ClearRow() const;

  mutable std::vector<NodeId> touched_;
  mutable PushScratch scratch_;
  mutable NodeId cached_source_ = 0;
  mutable bool has_cache_ = false;
};

/// Truncated Katz index: Σ_{l=1..L} β^l (A^l)_ij  [20].
class KatzProximity : public RowCachedProximity {
 public:
  KatzProximity(const Graph& graph, int max_length, double beta);
  std::string Name() const override;
  std::unique_ptr<ProximityProvider> Clone() const override {
    return std::make_unique<KatzProximity>(graph_, max_length_, beta_);
  }

 protected:
  void ComputeRow(NodeId source) const override;

 private:
  int max_length_;
  double beta_;
};

/// Personalized PageRank from the source node, `iterations` power steps with
/// restart probability alpha [21].
class PersonalizedPageRankProximity : public RowCachedProximity {
 public:
  PersonalizedPageRankProximity(const Graph& graph, double alpha,
                                int iterations);
  std::string Name() const override;
  std::unique_ptr<ProximityProvider> Clone() const override {
    return std::make_unique<PersonalizedPageRankProximity>(graph_, alpha_,
                                                           iterations_);
  }

 protected:
  void ComputeRow(NodeId source) const override;

 private:
  double alpha_;
  int iterations_;
};

/// Exact DeepWalk proximity [22]: M = (1/T) Σ_{w=1..T} (D^{-1}A)^w, i.e. the
/// average visiting distribution of a T-step random walk. M_ij > 0 for every
/// edge (i,j) since (D^{-1}A)_ij = 1/d_i.
class DeepWalkProximity : public RowCachedProximity {
 public:
  DeepWalkProximity(const Graph& graph, int window);
  std::string Name() const override;
  std::unique_ptr<ProximityProvider> Clone() const override {
    return std::make_unique<DeepWalkProximity>(graph_, window_);
  }

 protected:
  void ComputeRow(NodeId source) const override;

 private:
  int window_;
};

/// Monte-Carlo estimate of DeepWalkProximity: R walks of length T from the
/// source; p̂_ij = visits(j) / (R·T). Unbiased; variance O(1/R). Used for
/// graphs where even row-exact computation is too slow.
class SampledDeepWalkProximity : public RowCachedProximity {
 public:
  SampledDeepWalkProximity(const Graph& graph, int window, int walks_per_node,
                           uint64_t seed);
  std::string Name() const override;
  std::unique_ptr<ProximityProvider> Clone() const override {
    return std::make_unique<SampledDeepWalkProximity>(graph_, window_,
                                                      walks_per_node_, seed_);
  }

 protected:
  void ComputeRow(NodeId source) const override;

 private:
  int window_;
  int walks_per_node_;
  uint64_t seed_;
};

}  // namespace sepriv

#endif  // SEPRIVGEMB_PROXIMITY_WALK_PROXIMITY_H_
