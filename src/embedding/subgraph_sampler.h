// Algorithm 1 of the paper: pre-computes the set GS of disjoint subgraphs,
// one per edge. Each subgraph holds the positive pair (center, context) and
// k uniformly drawn negative nodes that are non-adjacent to the center.
// Collecting samples before training (footnote 2) makes the epoch-level
// subsampling rate exactly B/|E| for the privacy amplification analysis.
//
// The per-edge construction is factored into SubgraphGenerator, driven by an
// AdjacencyOracle, so the out-of-core pipeline can stream edges from a
// sharded store and write each Subgraph to disk without ever materialising
// GS. SubgraphSampler (the resident form) is a thin loop over the generator
// that fills a SubgraphTable, GS as one flat array of fixed-width records;
// for a fixed (seed, orientation, exclude_neighbors, negatives) and the same
// edge order, both produce the identical RNG stream and hence identical
// samples. ShardHaloOracle answers the generator's adjacency probes for one
// pinned scan shard of a GraphStore at a time.
//
// Algorithm 1 stays one serial pass on one stream: the draws an edge
// consumes depend on its adjacency probes (rejections, the reservoir
// fallback), so edge e's first draw is not known before edges 0..e-1 ran.
// Its cost is one RNG step per draw plus, per probe, one branch-free
// SortedContains over the center's row (or one bitset word when the center
// owns a bitset). The probes, not the stream, dominate: a compare branch on
// a random candidate mispredicts at every level of the search.

#ifndef SEPRIVGEMB_EMBEDDING_SUBGRAPH_SAMPLER_H_
#define SEPRIVGEMB_EMBEDDING_SUBGRAPH_SAMPLER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/shard.h"
#include "util/privacy_annotations.h"
#include "util/rng.h"
#include "util/status.h"

namespace sepriv {

/// One training example: an observed edge plus its negative samples.
struct SEPRIV_SENSITIVE_SOURCE Subgraph {
  NodeId center = 0;               // v_i of Eq. (5)
  NodeId context = 0;              // v_j
  std::vector<NodeId> negatives;   // v_n, (center, v_n) ∉ E
  uint32_t edge_index = 0;         // index into Graph::Edges() for p_ij lookup
};

/// GS as one flat table: row e is edge e's sample, a fixed-width record of
/// 2 + k NodeIds — center, context, then the k negatives. One allocation of
/// |E|·(2 + k)·4 bytes (28 B per edge at k = 5), where a Subgraph costs
/// about 72 B with its heap block. Only SubgraphSampler builds one, writing
/// every row through SubgraphGenerator.
class SEPRIV_SENSITIVE_SOURCE SubgraphTable {
 public:
  /// One row: views into the table, valid while it lives.
  struct Row {
    NodeId center = 0;
    NodeId context = 0;
    std::span<const NodeId> negatives;
  };

  SubgraphTable() = default;

  size_t size() const { return rows_; }
  size_t negatives_per_row() const { return width_ - 2; }

  Row operator[](size_t e) const {
    const NodeId* r = cells_.data() + e * width_;
    return {r[0], r[1], {r + 2, width_ - 2}};
  }

 private:
  friend class SubgraphSampler;
  SubgraphTable(size_t rows, size_t negatives_per_row)
      : rows_(rows),
        width_(negatives_per_row + 2),
        cells_(rows * width_) {}

  std::span<NodeId> Record(size_t e) {
    return {cells_.data() + e * width_, width_};
  }

  size_t rows_ = 0;
  size_t width_ = 2;
  std::vector<NodeId> cells_;  // rows_ records of width_ NodeIds
};

/// How the undirected edge is oriented into (center, context).
enum class EdgeOrientation {
  kCanonical,  // center = min endpoint (the literal Algorithm 1)
  kRandom,     // uniform coin per edge; avoids systematic low-id bias
};

/// The adjacency questions Algorithm 1 asks — the only graph access the
/// generator needs, so an out-of-core store can answer from resident rows.
class AdjacencyOracle {
 public:
  virtual ~AdjacencyOracle() = default;
  virtual size_t num_nodes() const = 0;
  /// Whether the undirected edge {u, v} exists. Called with u = a sample's
  /// center, so shard-aware implementations need u's row resident.
  virtual bool HasEdge(NodeId u, NodeId v) const = 0;
};

/// Oracle over a resident Graph. Answers from the center's bitset when the
/// center owns one, and otherwise searches the center's row, not the smaller
/// one as Graph::HasEdge does: an edge's k probes share the center's row,
/// and the scan visits edges sorted by u, so for the half of the edges
/// centered at u that row is already in cache. The smaller row is usually
/// the random candidate's, a cache miss per probe. Same answers either way.
class GraphAdjacencyOracle final : public AdjacencyOracle {
 public:
  explicit GraphAdjacencyOracle(const Graph& graph) : graph_(graph) {}
  size_t num_nodes() const override { return graph_.num_nodes(); }
  bool HasEdge(NodeId u, NodeId v) const override {
    if (graph_.HasMembershipBitset(u)) return graph_.HasEdge(u, v);
    return SortedContains(graph_.Neighbors(u), v);
  }

 private:
  const Graph& graph_;
};

/// Oracle for streaming Algorithm 1 over a GraphStore, one scan shard at a
/// time. The scan emits its canonical edges (u, v) with u in the shard and
/// v > u, so a sample's center is a scan node or a node of a LATER shard.
/// Load copies the rows of a run of edges' later endpoints into a halo, a
/// small CSR, so that HasEdge answers from the scan view or the halo and
/// never pins. A run ends before the edge whose new endpoint would push the
/// halo past |V| adjacency entries; since every degree is below |V|, a run
/// always admits its first edge. Resident state is O(|V|): the halo plus a
/// per-node stamp. Not thread-safe; one oracle serves one generator.
class ShardHaloOracle final : public AdjacencyOracle {
 public:
  /// `degrees[v]` is deg(v) for every node of `store` (the degree scan's
  /// vector). Both must outlive the oracle.
  ShardHaloOracle(GraphStore& store, std::span<const double> degrees);

  /// Loads the halo of the run of `scan`'s canonical edges that starts at
  /// global edge index `first_edge` and sets `*end_edge` to the index one
  /// past its last edge. Pins the halo's shards in ascending order with
  /// TryPin, one at a time, so the caller's pin of `scan` plus one more fit
  /// the store's minimum pool budget of two. A pin failure is returned, and
  /// HasEdge may not be called again until a later Load succeeds. `scan`
  /// must stay pinned while HasEdge is used.
  Status Load(const ShardView& scan, size_t first_edge, size_t* end_edge);

  size_t num_nodes() const override { return num_nodes_; }

  /// `u` must be a scan node or an endpoint of the loaded run's edges.
  bool HasEdge(NodeId u, NodeId v) const override;

  /// Adjacency entries in the loaded halo; never more than num_nodes().
  size_t halo_entries() const { return halo_adj_.size(); }

 private:
  GraphStore& store_;
  std::span<const double> degrees_;
  size_t num_nodes_;
  ShardView scan_;
  std::vector<uint32_t> stamp_;      // per node: the last run that admitted it
  uint32_t run_ = 0;
  std::vector<NodeId> halo_nodes_;   // sorted
  std::vector<size_t> halo_offsets_; // halo_nodes_.size() + 1 entries
  std::vector<NodeId> halo_adj_;
};

/// Streaming form of Algorithm 1: call Next() once per canonical edge, in
/// edge-index order, and it emits that edge's Subgraph while advancing the
/// single sampler RNG stream exactly as SubgraphSampler's bulk construction
/// does.
class SubgraphGenerator {
 public:
  SubgraphGenerator(const AdjacencyOracle& oracle, int negatives_per_edge,
                    uint64_t seed,
                    EdgeOrientation orientation = EdgeOrientation::kRandom,
                    bool exclude_neighbors = true);

  /// Builds the sample for edge {u, v} with index `edge_index`. `out` is
  /// overwritten (its negatives vector is reused — no per-call allocation
  /// once warm).
  void Next(NodeId u, NodeId v, uint32_t edge_index, Subgraph& out);

  /// The same sample written as a SubgraphTable record: center, context,
  /// then the k negatives (`record` holds 2 + k entries).
  void Next(NodeId u, NodeId v, std::span<NodeId> record);

 private:
  void Draw(NodeId u, NodeId v, NodeId& center, NodeId& context,
            NodeId* negatives);

  const AdjacencyOracle& oracle_;
  int negatives_per_edge_;
  EdgeOrientation orientation_;
  bool exclude_neighbors_;
  Rng rng_;
};

/// Materialises GS = {S_1, ..., S_|E|} as a SubgraphTable.
class SubgraphSampler {
 public:
  /// exclude_neighbors = true is the literal Algorithm 1 (negatives must be
  /// non-adjacent to the center). false samples negatives uniformly over
  /// V \ {center}, the support that Theorem 3's idealized objective (Eq. 12)
  /// actually integrates over.
  SubgraphSampler(const Graph& graph, int negatives_per_edge, uint64_t seed,
                  EdgeOrientation orientation = EdgeOrientation::kRandom,
                  bool exclude_neighbors = true);

  const SubgraphTable& All() const { return table_; }
  size_t size() const { return table_.size(); }

  /// Uniformly samples `batch_size` subgraph indices without replacement
  /// (the "subsample without replacement" setup of Definition 6).
  std::vector<uint32_t> SampleBatch(size_t batch_size, Rng& rng) const;

 private:
  SubgraphTable table_;
};

/// The batch-subsampling step alone: a uniform min(batch_size, population)-
/// subset of [0, population) without replacement. SubgraphSampler::SampleBatch
/// delegates here; out-of-core trainers call it directly with the sample
/// store's size (identical RNG stream, so identical batches).
std::vector<uint32_t> SampleBatchIndices(size_t population, size_t batch_size,
                                         Rng& rng);

}  // namespace sepriv

#endif  // SEPRIVGEMB_EMBEDDING_SUBGRAPH_SAMPLER_H_
