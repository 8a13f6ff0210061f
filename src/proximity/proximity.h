// Node-proximity interface (paper §II-D, Definition 4).
//
// A proximity provider quantifies the structural closeness p_ij of a node
// pair. SE-PrivGEmb consumes proximities in two places: per-edge weights
// p_ij of the structure-preference objective (Eq. 5) and the global constant
// min(P) of the unified negative-sampling design (Theorem 3). Providers range
// from first-order (common neighbours, preferential attachment) through
// second-order (Adamic–Adar, resource allocation) to high-order (Katz,
// personalized PageRank, DeepWalk walk-matrix proximity).

#ifndef SEPRIVGEMB_PROXIMITY_PROXIMITY_H_
#define SEPRIVGEMB_PROXIMITY_PROXIMITY_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/privacy_annotations.h"

namespace sepriv {

enum class ProximityKind {
  kCommonNeighbors,     // first-order: |N(i) ∩ N(j)|
  kJaccard,             // first-order: |∩| / |∪|
  kPreferentialAttachment,  // first-order: d_i d_j / 2|E| ("Deg" variant)
  kAdamicAdar,          // second-order: Σ 1/log d_w over common neighbours
  kResourceAllocation,  // second-order: Σ 1/d_w
  kKatz,                // high-order: Σ_l β^l (A^l)_ij, truncated
  kPersonalizedPageRank,  // high-order: PPR_i(j), power iteration
  kDeepWalk,            // high-order: (1/T) Σ_{w≤T} (D^{-1}A)^w, exact rows
  kDeepWalkSampled,     // Monte-Carlo estimate of kDeepWalk via random walks
};

/// Tuning knobs for the high-order providers.
struct ProximityOptions {
  int katz_max_length = 4;      // truncation L of the Katz series
  double katz_beta = 0.05;      // attenuation; must satisfy β·λ_max < 1
  double ppr_alpha = 0.15;      // restart probability
  int ppr_iterations = 20;      // power-iteration steps
  int dw_window = 2;            // T of the DeepWalk walk matrix
  int dw_walks_per_node = 40;   // sampled variant only
  int dw_walk_length = 6;       // sampled variant only
  uint64_t seed = 7;            // sampled variant only
};

/// Read-only proximity oracle over a fixed graph. Implementations may cache
/// the most recent source row, so At() is cheap when queried grouped by i
/// (the edge-list iteration order). A single instance is not thread-safe;
/// parallel callers give each worker its own Clone().
class ProximityProvider {
 public:
  virtual ~ProximityProvider() = default;

  /// Human-readable name, e.g. "deepwalk(T=2)". Must encode every parameter
  /// that changes At() (it keys the persistent proximity cache together with
  /// the graph fingerprint and ProximityOptions).
  virtual std::string Name() const = 0;

  /// Proximity of the (ordered) pair (i, j). Symmetrised by the caller when
  /// needed: high-order walk proximities are directional.
  ///
  /// At() must be a pure function of (i, j) and construction parameters —
  /// independent of query order and of any mutable caching — so that clones
  /// sharded across threads reproduce the serial output bit for bit.
  SEPRIV_SENSITIVE_SOURCE
  virtual double At(NodeId i, NodeId j) const = 0;

  /// Fresh provider over the same graph with identical parameters and an
  /// empty row cache. Each worker of ComputeShardProximities owns a private
  /// clone, so the (mutable, non-thread-safe) row caches never race.
  virtual std::unique_ptr<ProximityProvider> Clone() const = 0;

  /// Symmetric proximity (At(i,j) + At(j,i)) / 2.
  double Symmetric(NodeId i, NodeId j) const {
    return 0.5 * (At(i, j) + At(j, i));
  }
};

/// Per-edge proximity table, aligned with Graph::Edges(); the trainer's view
/// of a structure preference. Sensitive: per-edge proximities are a direct
/// function of the adjacency structure.
struct SEPRIV_SENSITIVE_SOURCE EdgeProximity {
  std::vector<double> values;  // symmetric p_ij per canonical edge
  double min_positive = 0.0;   // min(P) over positive edge proximities
  double max_value = 0.0;

  /// values scaled so max == 1 (Theorem 3's solution is scale-invariant:
  /// x_ij = log(p_ij / (k·minP)) does not change under p -> c·p).
  std::vector<double> normalized;
  double normalized_min_positive = 0.0;
};

/// Evaluates the provider on every canonical edge. Edges whose proximity is
/// zero (possible for sampled estimators) are floored at half the smallest
/// positive value so the preference weight never silently disables an edge.
EdgeProximity ComputeEdgeProximities(const Graph& graph,
                                     const ProximityProvider& provider);

/// Streaming form of the finalisation arithmetic: Accumulate every symmetric
/// edge proximity (pass 1), Seal, then map each value through Value() /
/// Normalized() (pass 2). FinalizeEdgeProximities is implemented on top of
/// this class, and the sharded/out-of-core proximity passes — which never
/// hold the full edge table in memory — stream through it directly, so the
/// two pipelines floor, clamp, and scale with bit-identical arithmetic.
class ProximityFinalizer {
 public:
  /// Pass 1: feed the symmetric proximity of every edge, in any order.
  void Accumulate(double p);

  /// Freezes the floor and scale. Accumulate must not be called afterwards.
  void Seal();

  /// Pass 2 (after Seal): the floored edge value, exactly as stored in
  /// EdgeProximity::values.
  double Value(double p) const { return p <= 0.0 ? floor_ : p; }

  /// Pass 2 (after Seal): the max-scaled value (EdgeProximity::normalized).
  double Normalized(double p) const { return Value(p) * inv_max_; }

  size_t count() const { return count_; }
  double min_positive() const { return min_positive_; }
  double max_value() const { return max_value_; }
  double normalized_min_positive() const { return normalized_min_positive_; }

 private:
  size_t count_ = 0;
  bool has_nonpositive_ = false;
  bool sealed_ = false;
  double min_pos_ = 0.0;  // running min over positive inputs (inf-init)
  double max_val_ = 0.0;
  double floor_ = 0.0;
  double min_positive_ = 0.0;
  double max_value_ = 0.0;
  double inv_max_ = 1.0;
  double normalized_min_positive_ = 0.0;
};

/// Shared tail of ComputeEdgeProximities and ShardedEdgeProximities:
/// symmetrises the per-edge forward/backward passes, floors zero values,
/// records min/max, and normalises. Kept common so the serial reference and
/// the shard pass are bit-identical by construction.
EdgeProximity FinalizeEdgeProximities(const std::vector<double>& forward,
                                      const std::vector<double>& backward);

/// Factory. Aborts on unsupported combinations (e.g. exact high-order
/// providers on graphs beyond their documented size limits).
std::unique_ptr<ProximityProvider> MakeProximity(
    ProximityKind kind, const Graph& graph, const ProximityOptions& opts = {});

/// Short stable name, e.g. "katz".
std::string ProximityKindName(ProximityKind kind);

/// All kinds (for parameterized tests and ablation benches).
const std::vector<ProximityKind>& AllProximityKinds();

}  // namespace sepriv

#endif  // SEPRIVGEMB_PROXIMITY_PROXIMITY_H_
