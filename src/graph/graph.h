// Immutable undirected, unweighted simple graph in CSR form.
//
// This is the substrate every other module builds on (paper §II-A). The
// graph is constructed once from an edge list (self-loops removed,
// duplicates merged, endpoints symmetrised) and then queried read-only:
// neighbour spans, degrees, O(log d) adjacency tests, and the canonical
// edge list (i < j) that Algorithm 1 samples from. SortedContains is the
// one sorted-row membership search; every adjacency test in the library
// that reads a row (Graph, ShardView, Algorithm 1's oracles) runs it.

#ifndef SEPRIVGEMB_GRAPH_GRAPH_H_
#define SEPRIVGEMB_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/privacy_annotations.h"

namespace sepriv {

/// Node identifier; graphs in the paper's evaluation reach 2.24M nodes.
using NodeId = uint32_t;

/// Whether `v` occurs in `row`, which must be ascending (every CSR row is).
/// Returns exactly what std::binary_search(row.begin(), row.end(), v)
/// returns, after ceil(log2 |row|) halving steps and one final compare. The
/// search is branch-free: each step moves the probe by a conditional
/// select, so a random `v` costs no mispredicted branch. The only branch
/// left is the loop exit, which depends on |row| alone.
inline bool SortedContains(std::span<const NodeId> row, NodeId v) {
  if (row.empty()) return false;
  // Invariant: the first element >= v has index in [lo, lo + n], and lo + n
  // only when that is row.size(); so once n = 1 the answer is row[lo]. The
  // select is on an index, not a pointer: gcc turns this form into a cmov.
  const NodeId* p = row.data();
  size_t lo = 0;
  for (size_t n = row.size(); n > 1;) {
    const size_t half = n / 2;
    lo = p[lo + half - 1] < v ? lo + half : lo;
    n -= half;
  }
  return p[lo] == v;
}

/// Undirected edge with canonical ordering u < v.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

class Graph {
 public:
  Graph() = default;

  /// Builds a simple undirected graph from an arbitrary edge list.
  /// Self-loops are dropped; duplicate/reversed edges are merged.
  /// `num_nodes` may exceed the max endpoint to include isolated nodes;
  /// pass 0 to infer (max endpoint + 1).
  static Graph FromEdges(size_t num_nodes, std::vector<Edge> edges);

  size_t num_nodes() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  SEPRIV_SENSITIVE_SOURCE
  size_t num_edges() const { return edges_.size(); }

  /// Sorted neighbour list of v.
  SEPRIV_SENSITIVE_SOURCE
  std::span<const NodeId> Neighbors(NodeId v) const {
    return {adjacency_.data() + offsets_[v],
            offsets_[v + 1] - offsets_[v]};
  }

  SEPRIV_SENSITIVE_SOURCE
  size_t Degree(NodeId v) const { return offsets_[v + 1] - offsets_[v]; }

  SEPRIV_SENSITIVE_SOURCE
  size_t MaxDegree() const;

  /// Adjacency test: O(1) when either endpoint is a high-degree node (its
  /// row carries a packed membership bitset, see below), otherwise a
  /// branch-free SortedContains over the smaller of the two rows,
  /// O(log min-degree). Its hot callers (the walk proximities' last-step
  /// pull, link prediction's non-edge draw, the baselines) probe pairs that
  /// repeat no endpoint, so the smaller row is the cheaper one to read.
  SEPRIV_SENSITIVE_SOURCE
  bool HasEdge(NodeId u, NodeId v) const;

  /// True when node v owns a membership bitset. HasEdge branches on it
  /// internally; GraphAdjacencyOracle also branches on it, to answer from
  /// the center's bitset when it has one and search the center's row
  /// otherwise. Exposed for those and for tests and the HasEdge microbench.
  bool HasMembershipBitset(NodeId v) const {
    return !bitset_start_.empty() && bitset_start_[v] != kNoBitset;
  }

  /// Canonical edge list, each edge once with u < v, sorted lexicographically.
  SEPRIV_SENSITIVE_SOURCE
  const std::vector<Edge>& Edges() const { return edges_; }

  /// Raw CSR arrays (offsets size |V|+1, adjacency size 2|E|). The sharding
  /// layer slices these directly; other callers should prefer Neighbors().
  SEPRIV_SENSITIVE_SOURCE
  std::span<const size_t> OffsetArray() const { return offsets_; }
  SEPRIV_SENSITIVE_SOURCE
  std::span<const NodeId> AdjacencyArray() const { return adjacency_; }

  /// Number of common neighbours of u and v (sorted-list intersection).
  SEPRIV_SENSITIVE_SOURCE
  size_t CommonNeighborCount(NodeId u, NodeId v) const;

  /// Squared Euclidean distance between adjacency rows u and v:
  /// ||A_u - A_v||^2 = deg(u) + deg(v) - 2|N(u) ∩ N(v)|, adjusted so that a
  /// (u,v) edge contributes symmetrically. Used by the StrucEqu metric.
  SEPRIV_SENSITIVE_SOURCE
  double AdjacencyRowSquaredDistance(NodeId u, NodeId v) const;

  /// Mean degree 2|E| / |V|.
  SEPRIV_SENSITIVE_SOURCE
  double AverageDegree() const {
    return num_nodes() == 0
               ? 0.0
               : 2.0 * static_cast<double>(num_edges()) /
                     static_cast<double>(num_nodes());
  }

  /// Per-node degree vector (double, for samplers and proximities).
  SEPRIV_SENSITIVE_SOURCE
  std::vector<double> DegreeVector() const;

  /// 64-bit structural hash over the CSR arrays (offsets + adjacency +
  /// counts). Two graphs share a fingerprint iff they have identical node
  /// count and canonical edge lists; stable across processes and platforms
  /// of equal endianness. Keys the persistent proximity cache.
  SEPRIV_SENSITIVE_SOURCE
  uint64_t Fingerprint() const;

  /// Human-readable one-line summary ("|V|=..., |E|=..., avg deg=...").
  SEPRIV_SENSITIVE_SOURCE
  std::string Summary() const;

 private:
  void BuildMembershipAccelerator();

  std::vector<size_t> offsets_;     // size |V|+1
  std::vector<NodeId> adjacency_;   // size 2|E|, sorted per node
  std::vector<Edge> edges_;         // canonical u < v list

  // Per-node membership accelerator: rows with degree >= max(64, |V|/64)
  // own a packed bitset over V (ceil(|V|/64) words each) inside
  // bitset_words_, located via bitset_start_ (kNoBitset = SortedContains
  // over the row). At that threshold at most 2|E|/(|V|/64) rows qualify, so
  // the accelerator never exceeds ~16 bytes per edge; the vectors are empty
  // when no row qualifies. Not part of Fingerprint(): the digest covers the
  // CSR arrays, which fully determine the accelerator.
  static constexpr uint32_t kNoBitset = UINT32_MAX;
  size_t bitset_row_words_ = 0;           // words per accelerated row
  std::vector<uint32_t> bitset_start_;    // per node: word offset or kNoBitset
  std::vector<uint64_t> bitset_words_;
};

}  // namespace sepriv

#endif  // SEPRIVGEMB_GRAPH_GRAPH_H_
