// High-order proximity providers: Katz, personalized PageRank, and the
// DeepWalk walk-matrix proximity (exact and Monte-Carlo sampled).
//
// All of them are "row oracles": the proximity row of a source node is
// computed with sparse push operations over the CSR graph and cached, so
// querying pairs grouped by source (the edge-list order used by
// ComputeEdgeProximities) costs one row computation per distinct source.
//
// The exact walk providers (DeepWalk, Katz) cache all but the last walk
// step. Step L would push each frontier node k's term to N(k), yet a query
// At(i, j) reads only column j, so At() pulls that column instead:
// row[j] + scale · Σ term[k] over k ∈ frontier ∩ N(j), added in push order
// from 0.0. Pushing the step would add the same doubles into next[j], in the
// same order and from the same 0.0, before row[j] += scale · next[j], so
// every value equals the full push bit for bit (the walk-proximity tests
// keep that push as their reference).
//
// Cost model. A row costs the pushes of its first L−1 steps, Σ deg(k) over
// the nodes k those steps reach, plus one clear per touched entry, and
// nothing proportional to |V|. A query then costs about
// min(|frontier|·log d_j, d_j): it walks whichever of the last frontier and
// N(j) is shorter. Walking the frontier tests k ∈ N(j) with Graph::HasEdge.
// Walking N(j) sums the terms in N(j) order when the frontier is ascending,
// as it is at T = 2 and L = 2 (it is N(i)); otherwise it sorts the hits
// back into push order by a per-node frontier rank. PPR and sampled
// DeepWalk keep full rows and answer a query with one load. The shard pass
// reads a row only at the source's own neighbours, so at T = 2 the pull
// replaces Σ_v d_v² last-step pushes with Σ_edges min(d_u, d_v) probes
// (3.6·10⁷ against 4.9·10⁶ on PowerLawCluster(10⁵, 5, 0.3)).
//
// Memory. Each instance owns its cached row (|V| doubles, allocated by the
// constructor), the exact providers' push workspace (PushScratch, ~2·|V|
// doubles) and the frontier rank (|V| uint32, on the first frontier out of
// ascending order); the last two are allocated on first use. All are reused
// across rows, and each Clone() has its own, so parallel workers never share
// them. The row stays eager: allocated on a worker's first row instead, it
// comes from that thread's malloc arena, which keeps the pages after the
// clone is freed and raised the peak RSS of a DeepWalk training run by ~2 MB.

#ifndef SEPRIVGEMB_PROXIMITY_WALK_PROXIMITY_H_
#define SEPRIVGEMB_PROXIMITY_WALK_PROXIMITY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "proximity/proximity.h"
#include "util/rng.h"

namespace sepriv {

/// Shared row-cache plumbing. Subclasses fill `row_` for a source node and
/// may leave the row's last walk step for At() to pull (DeferLastStep).
class RowCachedProximity : public ProximityProvider {
 public:
  explicit RowCachedProximity(const Graph& graph);
  double At(NodeId i, NodeId j) const override;

 protected:
  /// Fills row_[*] with the proximity row of `source`, or with all of it but
  /// a last step that it hands to DeferLastStep. On entry row_ is zeroed and
  /// Scratch() is clear; implementations must record touched row indices via
  /// Touch().
  virtual void ComputeRow(NodeId source) const = 0;

  void Touch(NodeId j) const { touched_.push_back(j); }

  /// Dense push workspace of the exact walk providers: two |V|-length
  /// vectors and, for each, the list of its non-zero indices in insertion
  /// order. Between rows `next` is all zero and `next_nz` empty, while `cur`
  /// and `cur_nz` may still hold the cached row's last vector (the deferred
  /// frontier of DeepWalk and Katz): At() clears them (Reset) at the next
  /// row switch, before ComputeRow.
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

  /// Ends ComputeRow with the row's last walk step not taken. Scratch().cur_nz
  /// is that step's frontier in push order and cur[k] is node k's term, the
  /// value the step would push to every neighbour of k (+0.0 off the
  /// frontier, as the scratch always is); `scale` is the factor the step's
  /// sum enters the row with. At(i, j) then returns
  /// row_[j] + scale · Σ cur[k] over k ∈ cur_nz ∩ N(j), added in cur_nz order
  /// from 0.0.
  void DeferLastStep(double scale) const;

  const Graph& graph_;
  mutable std::vector<double> row_;

 private:
  /// Clears the cached row and the deferred step, then computes `source`.
  void SwitchRow(NodeId source) const;
  /// Σ cur[k] over k ∈ frontier ∩ N(j), in frontier order.
  double PullLastStep(NodeId j) const;

  mutable std::vector<NodeId> touched_;
  mutable PushScratch scratch_;
  // Position of each node in the deferred frontier (scratch_.cur_nz) while
  // `ranked_`, kNoRank otherwise. Only a frontier out of ascending order is
  // ranked: the pull needs the rank to put N(j)'s hits back in push order,
  // while an ascending frontier meets the ascending N(j) in that order.
  mutable std::vector<uint32_t> frontier_rank_;
  mutable std::vector<uint32_t> hits_;  // PullLastStep's ranks of N(j)
  mutable double last_scale_ = 0.0;
  mutable bool deferred_ = false;
  mutable bool ranked_ = false;
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
