#include "embedding/subgraph_sampler.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/check.h"

namespace sepriv {
namespace {

/// The canonical edges of scan node u: its sorted neighbours above u.
std::span<const NodeId> UpperNeighbors(const ShardView& scan, NodeId u) {
  const auto row = scan.Neighbors(u);
  return row.subspan(static_cast<size_t>(
      std::upper_bound(row.begin(), row.end(), u) - row.begin()));
}

}  // namespace

ShardHaloOracle::ShardHaloOracle(GraphStore& store,
                                 std::span<const double> degrees)
    : store_(store),
      degrees_(degrees),
      num_nodes_(store.num_nodes()),
      stamp_(store.num_nodes(), 0) {
  SEPRIV_CHECK(degrees.size() == num_nodes_,
               "degree vector size %zu != |V| %zu", degrees.size(),
               num_nodes_);
}

Status ShardHaloOracle::Load(const ShardView& scan, size_t first_edge,
                             size_t* end_edge) {
  const size_t scan_end = scan.edge_begin + scan.edge_count;
  SEPRIV_CHECK(first_edge >= scan.edge_begin && first_edge < scan_end,
               "edge %zu outside the scan shard", first_edge);
  scan_ = scan;
  halo_nodes_.clear();
  halo_offsets_.assign(1, 0);
  halo_adj_.clear();
  ++run_;
  if (run_ == 0) {  // stamp wrap-around: forget every earlier run
    std::fill(stamp_.begin(), stamp_.end(), 0);
    run_ = 1;
  }

  // Find first_edge's row, then admit edges in index order until one brings
  // a new later-shard endpoint whose row would overflow the halo.
  NodeId u = scan.node_begin;
  size_t e = scan.edge_begin;
  std::span<const NodeId> upper = UpperNeighbors(scan, u);
  while (e + upper.size() <= first_edge) {
    e += upper.size();
    upper = UpperNeighbors(scan, ++u);
  }
  upper = upper.subspan(first_edge - e);
  size_t entries = 0;
  for (e = first_edge; e < scan_end; ++e) {
    while (upper.empty()) upper = UpperNeighbors(scan, ++u);
    const NodeId v = upper.front();
    upper = upper.subspan(1);
    if (v < scan.node_end || stamp_[v] == run_) continue;
    const auto degree = static_cast<size_t>(degrees_[v]);
    if (entries + degree > num_nodes_) break;
    stamp_[v] = run_;
    entries += degree;
    halo_nodes_.push_back(v);
  }
  *end_edge = e;

  // Copy the rows shard by shard: sorted nodes make each shard one pin.
  std::sort(halo_nodes_.begin(), halo_nodes_.end());
  halo_adj_.reserve(entries);
  const ShardManifest& manifest = store_.manifest();
  for (size_t i = 0; i < halo_nodes_.size();) {
    PinnedShard pin;
    SEPRIV_RETURN_IF_ERROR(
        store_.TryPin(manifest.ShardOfNode(halo_nodes_[i]), &pin));
    for (; i < halo_nodes_.size() && halo_nodes_[i] < pin->node_end; ++i) {
      const auto row = pin->Neighbors(halo_nodes_[i]);
      halo_adj_.insert(halo_adj_.end(), row.begin(), row.end());
      halo_offsets_.push_back(halo_adj_.size());
    }
  }
  SEPRIV_DCHECK(halo_adj_.size() == entries && entries <= num_nodes_);
  return OkStatus();
}

bool ShardHaloOracle::HasEdge(NodeId u, NodeId v) const {
  if (u >= scan_.node_begin && u < scan_.node_end) return scan_.HasEdge(u, v);
  const auto it = std::lower_bound(halo_nodes_.begin(), halo_nodes_.end(), u);
  SEPRIV_DCHECK(it != halo_nodes_.end() && *it == u);
  const auto i = static_cast<size_t>(it - halo_nodes_.begin());
  const NodeId* adj = halo_adj_.data();
  return SortedContains({adj + halo_offsets_[i], adj + halo_offsets_[i + 1]},
                        v);
}

SubgraphGenerator::SubgraphGenerator(const AdjacencyOracle& oracle,
                                     int negatives_per_edge, uint64_t seed,
                                     EdgeOrientation orientation,
                                     bool exclude_neighbors)
    : oracle_(oracle),
      negatives_per_edge_(negatives_per_edge),
      orientation_(orientation),
      exclude_neighbors_(exclude_neighbors),
      rng_(seed) {
  SEPRIV_CHECK(negatives_per_edge >= 0, "negative count must be >= 0");
  SEPRIV_CHECK(oracle.num_nodes() >= 2, "graph too small for sampling");
}

void SubgraphGenerator::Next(NodeId u, NodeId v, uint32_t edge_index,
                             Subgraph& out) {
  out.edge_index = edge_index;
  out.negatives.resize(static_cast<size_t>(negatives_per_edge_));
  Draw(u, v, out.center, out.context, out.negatives.data());
}

void SubgraphGenerator::Next(NodeId u, NodeId v, std::span<NodeId> record) {
  SEPRIV_DCHECK(record.size() == static_cast<size_t>(negatives_per_edge_) + 2);
  Draw(u, v, record[0], record[1], record.data() + 2);
}

void SubgraphGenerator::Draw(NodeId u, NodeId v, NodeId& center,
                             NodeId& context, NodeId* negatives) {
  const size_t n = oracle_.num_nodes();
  if (orientation_ == EdgeOrientation::kRandom && rng_.Bernoulli(0.5)) {
    center = v;
    context = u;
  } else {
    center = u;
    context = v;
  }
  // Algorithm 1 lines 4–12: rejection-sample nodes non-adjacent to center.
  for (int k = 0; k < negatives_per_edge_; ++k) {
    NodeId cand = center;
    bool found = false;
    for (int tries = 0; tries < 256; ++tries) {
      cand = static_cast<NodeId>(rng_.UniformInt(n));
      if (cand != center &&
          (!exclude_neighbors_ || !oracle_.HasEdge(center, cand))) {
        found = true;
        break;
      }
    }
    if (!found && exclude_neighbors_) {
      // Rejection exhausted its budget (dense neighbourhood). Before
      // relaxing the non-adjacency constraint, reservoir-sample the node
      // range: if ANY valid non-neighbor exists one must be used — falling
      // straight back to "any non-center node" would violate
      // exclude_neighbors whenever the valid set is merely small — and the
      // reservoir keeps the pick uniform over the valid set, matching the
      // distribution rejection sampling targets.
      uint64_t valid_seen = 0;
      for (size_t probe = 0; probe < n; ++probe) {
        const auto node = static_cast<NodeId>(probe);
        if (node == center || oracle_.HasEdge(center, node)) continue;
        ++valid_seen;
        if (valid_seen == 1 || rng_.UniformInt(valid_seen) == 0) cand = node;
      }
      found = valid_seen > 0;
    }
    if (!found) {
      // Truly no valid negative (e.g. complete graph): relax to any
      // non-center node so construction still terminates.
      cand = static_cast<NodeId>((center + 1 + rng_.UniformInt(n - 1)) % n);
      if (cand == center) cand = static_cast<NodeId>((cand + 1) % n);
    }
    negatives[k] = cand;
  }
}

SubgraphSampler::SubgraphSampler(const Graph& graph, int negatives_per_edge,
                                 uint64_t seed, EdgeOrientation orientation,
                                 bool exclude_neighbors) {
  GraphAdjacencyOracle oracle(graph);
  SubgraphGenerator gen(oracle, negatives_per_edge, seed, orientation,
                        exclude_neighbors);
  table_ = SubgraphTable(graph.num_edges(),
                         static_cast<size_t>(negatives_per_edge));
  for (size_t e = 0; e < table_.size(); ++e) {
    const Edge& edge = graph.Edges()[e];
    gen.Next(edge.u, edge.v, table_.Record(e));
  }
}

std::vector<uint32_t> SampleBatchIndices(size_t population, size_t batch_size,
                                         Rng& rng) {
  const size_t n = population;
  SEPRIV_CHECK(n > 0, "no subgraphs to sample");
  // kEmpty marks a free slot, so no pick (at most n − 1) may equal it.
  constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  SEPRIV_CHECK(n <= kEmpty, "population %zu exceeds the uint32 index range",
               n);
  const size_t m = std::min(batch_size, n);
  // Floyd's algorithm: uniform m-subset without replacement in O(m).
  // Membership lives in a flat open-addressing table of at least 2m slots
  // (linear probing, multiplicative hash), so a batch costs one allocation
  // instead of one node per pick. Membership-only (never iterated), so the
  // table layout cannot reach the sampled picks; the draw order comes from
  // `picked` and the rng stream.
  const size_t slots = std::bit_ceil(2 * m);
  const int shift = 64 - std::countr_zero(slots);
  std::vector<uint32_t> table(slots, kEmpty);
  // Inserts v; false if it was already present.
  const auto insert = [&](uint32_t v) {
    size_t h = (v * 0x9E3779B97F4A7C15ull) >> shift;
    for (; table[h] != kEmpty; h = (h + 1) & (slots - 1)) {
      if (table[h] == v) return false;
    }
    table[h] = v;
    return true;
  };
  std::vector<uint32_t> picked;
  picked.reserve(m);
  for (size_t j = n - m; j < n; ++j) {
    const auto t = static_cast<uint32_t>(rng.UniformInt(j + 1));
    // If t was picked before, j cannot have been: every earlier pick is < j.
    const uint32_t pick = insert(t) ? t : static_cast<uint32_t>(j);
    if (pick != t) insert(pick);
    picked.push_back(pick);
  }
  return picked;
}

std::vector<uint32_t> SubgraphSampler::SampleBatch(size_t batch_size,
                                                   Rng& rng) const {
  return SampleBatchIndices(table_.size(), batch_size, rng);
}

}  // namespace sepriv
