#include "graph/graph.h"

#include <algorithm>
#include <cstdio>

#include "util/check.h"
#include "util/rng.h"

namespace sepriv {

Graph Graph::FromEdges(size_t num_nodes, std::vector<Edge> edges) {
  // Canonicalise IN PLACE: drop self-loops, order endpoints, dedupe. The
  // compact-sort-unique runs on the caller's buffer, so peak memory at load
  // is one edge list, not two.
  size_t kept = 0;
  NodeId max_node = 0;
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;  // simple graph: no self-loops (paper §VI-A)
    const Edge c{std::min(e.u, e.v), std::max(e.u, e.v)};
    max_node = std::max(max_node, c.v);
    edges[kept++] = c;
  }
  edges.resize(kept);
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  size_t n = num_nodes;
  if (n == 0) {
    n = edges.empty() ? 0 : static_cast<size_t>(max_node) + 1;
  } else {
    SEPRIV_CHECK(edges.empty() || static_cast<size_t>(max_node) < n,
                 "edge endpoint %u out of range for %zu nodes", max_node, n);
  }

  Graph g;
  g.edges_ = std::move(edges);
  g.offsets_.assign(n + 1, 0);
  for (const Edge& e : g.edges_) {
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
  }
  for (size_t i = 1; i <= n; ++i) g.offsets_[i] += g.offsets_[i - 1];
  g.adjacency_.resize(2 * g.edges_.size());
  std::vector<size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : g.edges_) {
    g.adjacency_[cursor[e.u]++] = e.v;
    g.adjacency_[cursor[e.v]++] = e.u;
  }
  for (size_t v = 0; v < n; ++v) {
    std::sort(g.adjacency_.begin() + static_cast<ptrdiff_t>(g.offsets_[v]),
              g.adjacency_.begin() + static_cast<ptrdiff_t>(g.offsets_[v + 1]));
  }
  g.BuildMembershipAccelerator();
  return g;
}

void Graph::BuildMembershipAccelerator() {
  const size_t n = num_nodes();
  bitset_row_words_ = 0;
  bitset_start_.clear();
  bitset_words_.clear();
  if (n < 2) return;
  // Degree threshold max(64, n/64): below 64 the row search is a handful
  // of cache-resident probes anyway; the relative term caps total memory at
  // 2|E|/(n/64) rows x n/8 bytes = 16|E| bytes.
  const size_t threshold = std::max<size_t>(64, n / 64);
  const size_t row_words = (n + 63) / 64;
  size_t total_words = 0;
  for (size_t v = 0; v < n; ++v) {
    if (Degree(v) >= threshold) total_words += row_words;
  }
  if (total_words == 0 ||
      total_words > static_cast<size_t>(UINT32_MAX)) {
    // Nothing qualifies, or the word offsets would overflow their 32-bit
    // index (a graph far beyond this library's documented scale) — fall
    // back to SortedContains everywhere.
    return;
  }
  bitset_row_words_ = row_words;
  bitset_start_.assign(n, kNoBitset);
  bitset_words_.assign(total_words, 0);
  size_t cursor = 0;
  for (size_t v = 0; v < n; ++v) {
    if (Degree(v) < threshold) continue;
    bitset_start_[v] = static_cast<uint32_t>(cursor);
    uint64_t* row = bitset_words_.data() + cursor;
    for (NodeId u : Neighbors(static_cast<NodeId>(v))) {
      row[u / 64] |= uint64_t{1} << (u % 64);
    }
    cursor += row_words;
  }
}

size_t Graph::MaxDegree() const {
  size_t mx = 0;
  for (size_t v = 0; v < num_nodes(); ++v) mx = std::max(mx, Degree(v));
  return mx;
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  if (u == v) return false;
  // O(1) fast path: either endpoint's membership bitset answers directly.
  if (!bitset_start_.empty()) {
    if (bitset_start_[u] != kNoBitset) {
      const uint64_t* row = bitset_words_.data() + bitset_start_[u];
      return (row[v / 64] >> (v % 64)) & 1;
    }
    if (bitset_start_[v] != kNoBitset) {
      const uint64_t* row = bitset_words_.data() + bitset_start_[v];
      return (row[u / 64] >> (u % 64)) & 1;
    }
  }
  // Both endpoints are low-degree: search the smaller adjacency list.
  if (Degree(u) > Degree(v)) std::swap(u, v);
  return SortedContains(Neighbors(u), v);
}

size_t Graph::CommonNeighborCount(NodeId u, NodeId v) const {
  const auto a = Neighbors(u);
  const auto b = Neighbors(v);
  size_t i = 0, j = 0, count = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

double Graph::AdjacencyRowSquaredDistance(NodeId u, NodeId v) const {
  if (u == v) return 0.0;
  // ||A_u - A_v||^2 over 0/1 rows = |N(u) Δ N(v)|; the mutual edge (if any)
  // is a member of the symmetric difference at both column u and column v,
  // which the degree identity below already counts. This is the literal
  // "difference between the lines of the adjacency matrix" of paper §VI-A.
  const double cn = static_cast<double>(CommonNeighborCount(u, v));
  const double d = static_cast<double>(Degree(u)) +
                   static_cast<double>(Degree(v)) - 2.0 * cn;
  return d < 0.0 ? 0.0 : d;
}

std::vector<double> Graph::DegreeVector() const {
  std::vector<double> deg(num_nodes());
  for (size_t v = 0; v < num_nodes(); ++v)
    deg[v] = static_cast<double>(Degree(v));
  return deg;
}

uint64_t Graph::Fingerprint() const {
  // splitmix64-chained word hash: every offset and adjacency entry feeds the
  // state, so any structural difference (including trailing isolated nodes)
  // changes the digest.
  uint64_t h = 0x5e9e7a6b5ee2c9d1ULL;
  h = HashMix(h, static_cast<uint64_t>(num_nodes()));
  h = HashMix(h, static_cast<uint64_t>(num_edges()));
  for (size_t off : offsets_) h = HashMix(h, static_cast<uint64_t>(off));
  for (NodeId v : adjacency_) h = HashMix(h, static_cast<uint64_t>(v));
  return h;
}

std::string Graph::Summary() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "|V|=%zu |E|=%zu avg_deg=%.2f", num_nodes(),
                num_edges(), AverageDegree());
  return buf;
}

}  // namespace sepriv
