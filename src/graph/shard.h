// Sharded CSR storage: the out-of-core representation of a Graph.
//
// The CSR is partitioned into contiguous node-range shards, balanced by
// adjacency entries. Each shard carries its slice of the offset and
// adjacency arrays plus enough metadata to derive its canonical edges
// (u < v with u in the shard's range) with their GLOBAL edge indices — so a
// sequential walk over shards reproduces Graph::Edges() exactly, and every
// edge-indexed table (proximity values, training samples) lines up without
// the full graph in memory.
//
// Storage backends implement one interface, GraphStore:
//   * InMemoryGraphStore wraps an existing Graph — the 1-shard special case
//     (any shard count works; views point into the graph's own arrays), so
//     every in-memory pipeline is the degenerate case of the sharded one;
//   * SsdGraphStore reads shards from a PageFile through a fixed-budget
//     BufferPool (one shard per page), synchronously.
//
// TryPin is the one pin: it returns a Status, and a disk-backed store that
// cannot produce verified bytes after its bounded re-reads reports the error
// there instead of aborting.
//
// Integrity: every shard page carries a checksum over its payload (detects
// corruption before any field is trusted), and every shard has a fingerprint
// over its CSR slice (keys the per-shard proximity cache; recomputed on each
// fresh load, it cross-checks the page against its manifest entry). Both are
// PageHash values (util/digest.h), so a change confined to one aligned 8-byte
// word is always detected and any other corruption carries 64-bit collision
// odds, at memory speed. The manifest also records the whole-graph
// Graph::Fingerprint() — reproducible from the shards alone via
// ComposeGraphFingerprint, so the sharded and in-memory representations can
// be proven to describe the same graph without materializing it. A directory
// of another format version is rejected, never misread; rewrite it with
// WriteGraphShards or ReadEdgeListToShards.

#ifndef SEPRIVGEMB_GRAPH_SHARD_H_
#define SEPRIVGEMB_GRAPH_SHARD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/privacy_annotations.h"
#include "util/buffer_pool.h"
#include "util/page_file.h"
#include "util/status.h"

namespace sepriv {

/// Per-shard manifest entry. All ranges are half-open and global.
struct GraphShardInfo {
  uint64_t node_begin = 0;
  uint64_t node_end = 0;
  uint64_t adj_begin = 0;    // == offsets[node_begin]
  uint64_t adj_count = 0;    // == offsets[node_end] - offsets[node_begin]
  uint64_t edge_begin = 0;   // global index of the shard's first canonical edge
  uint64_t edge_count = 0;   // canonical edges with u in [node_begin, node_end)
  uint64_t fingerprint = 0;  // hash of the shard's CSR slice (ShardFingerprint)
};

/// Describes a complete sharding of one graph.
struct ShardManifest {
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  uint64_t page_size = 0;          // bytes per shard page (0: not page-backed)
  uint64_t graph_fingerprint = 0;  // == Graph::Fingerprint() of the graph
  std::vector<GraphShardInfo> shards;

  size_t num_shards() const { return shards.size(); }

  /// Index of the shard containing node v (binary search over ranges).
  size_t ShardOfNode(NodeId v) const;
};

/// Read-only facade over one resident shard. `offsets` holds the GLOBAL
/// offset values offsets[node_begin..node_end] (node_end-node_begin+1
/// entries); `adjacency` is the slice rebased at adj_begin. Its accessors
/// share names (Degree/Neighbors/HasEdge) with Graph's source-annotated
/// ones — privflow's name-keyed call graph covers both — and ForEachEdge is
/// annotated here.
struct ShardView {
  NodeId node_begin = 0;
  NodeId node_end = 0;
  size_t adj_begin = 0;
  size_t edge_begin = 0;
  size_t edge_count = 0;
  const uint64_t* offsets = nullptr;
  const NodeId* adjacency = nullptr;

  size_t Degree(NodeId v) const {
    return offsets[v - node_begin + 1] - offsets[v - node_begin];
  }

  /// Sorted neighbour list of v; v must be in [node_begin, node_end).
  std::span<const NodeId> Neighbors(NodeId v) const {
    const size_t lo = offsets[v - node_begin] - adj_begin;
    const size_t hi = offsets[v - node_begin + 1] - adj_begin;
    return {adjacency + lo, hi - lo};
  }

  /// Adjacency test via u's row; u must be in the shard's node range.
  bool HasEdge(NodeId u, NodeId x) const;

  /// Visits the shard's canonical edges in global order:
  /// fn(global_edge_index, u, v) with u < v and u in the shard's range.
  template <typename Fn>
  SEPRIV_SENSITIVE_SOURCE void ForEachEdge(Fn&& fn) const {
    size_t e = edge_begin;
    for (NodeId u = node_begin; u < node_end; ++u) {
      for (NodeId v : Neighbors(u)) {
        if (v > u) fn(e++, u, v);
      }
    }
  }
};

/// A pinned shard: the view plus whatever keeps its memory alive (a buffer
/// pool pin for SSD shards, nothing for in-memory ones).
class PinnedShard {
 public:
  PinnedShard() = default;
  PinnedShard(ShardView view, std::shared_ptr<const void> hold)
      : view_(view), hold_(std::move(hold)) {}

  const ShardView& view() const { return view_; }
  const ShardView* operator->() const { return &view_; }

 private:
  ShardView view_;
  std::shared_ptr<const void> hold_;
};

/// Storage interface the shard-aware consumers (sharded proximity passes,
/// out-of-core training, bench_oocore) are written against.
class GraphStore {
 public:
  virtual ~GraphStore() = default;

  virtual const ShardManifest& manifest() const = 0;

  /// Makes shard `s` resident (reading it when disk-backed) and stores a
  /// pinned view in `*out`. Disk-backed stores retry transient faults and
  /// checksum mismatches with bounded re-reads; what survives them surfaces
  /// as a structured error and leaves `*out` empty. In-memory stores never
  /// fail.
  virtual Status TryPin(size_t s, PinnedShard* out) = 0;

  /// Aborting wrapper over TryPin. Kept only because perfbench's replica
  /// calls it; in the library only ShardedEdgeProximities, whose in-memory
  /// pins cannot fail, uses it.
  PinnedShard Pin(size_t s) {
    PinnedShard pin;
    SEPRIV_CHECK_OK(TryPin(s, &pin));
    return pin;
  }

  /// No-op. Kept only because perfbench's replica calls it.
  void Prefetch(size_t /*s*/) {}

  size_t num_nodes() const { return manifest().num_nodes; }
  size_t num_edges() const { return manifest().num_edges; }
  size_t num_shards() const { return manifest().num_shards(); }
  uint64_t fingerprint() const { return manifest().graph_fingerprint; }
};

/// Fingerprint of one shard's CSR slice (range + offsets + adjacency).
/// Changes whenever any of the shard's rows change; independent of the rest
/// of the graph, so it keys per-shard cache entries.
uint64_t ShardFingerprint(const ShardView& view);

/// Plans `num_shards` contiguous node ranges balanced by adjacency entries
/// (clamped to [1, max(1, num_nodes)] shards; every range non-empty).
std::vector<std::pair<NodeId, NodeId>> PlanShardRanges(const Graph& graph,
                                                       size_t num_shards);

/// Manifest for an in-memory graph under the planned ranges (page_size 0).
ShardManifest BuildManifest(const Graph& graph, size_t num_shards);

/// The 1..N-shard wrapper over an in-memory Graph. Views alias the graph's
/// own arrays (plus a uint64 offsets mirror); the graph must outlive the
/// store. TryPin never reads and never fails.
class InMemoryGraphStore : public GraphStore {
 public:
  explicit InMemoryGraphStore(const Graph& graph, size_t num_shards = 1);

  const ShardManifest& manifest() const override { return manifest_; }
  Status TryPin(size_t s, PinnedShard* out) override;

 private:
  const Graph& graph_;
  ShardManifest manifest_;
  std::vector<uint64_t> offsets64_;  // Graph offsets widened to the on-disk type
};

/// Serialises `graph` into `dir` as "graph.manifest" + "graph.shards" (one
/// shard per page; page size = max shard payload rounded up to 4 KiB).
/// Returns false on I/O failure.
/// A bool, not a Status, only because perfbench calls it.
bool WriteGraphShards(const Graph& graph, const std::string& dir,
                      size_t num_shards);

/// Loads and verifies a manifest written by WriteGraphShards (or the
/// streaming ingest). nullopt when missing, truncated, corrupt, or from a
/// different format version.
std::optional<ShardManifest> LoadShardManifest(const std::string& dir);

/// Disk-backed store: manifest + page file + fixed-budget buffer pool.
class SsdGraphStore : public GraphStore {
 public:
  /// `budget_pages` 0 resolves through SEPRIV_POOL_PAGES (default 4); the
  /// effective budget is clamped to >= 2 so one consumer can hold a
  /// sequential shard pinned while probing another (negative-sampling
  /// adjacency checks). Returns nullptr when the manifest or page file is
  /// missing or invalid.
  /// A pointer, not a Status, only because perfbench calls it.
  static std::unique_ptr<SsdGraphStore> Open(const std::string& dir,
                                             size_t budget_pages = 0);

  const ShardManifest& manifest() const override { return manifest_; }

  /// Pin with graceful degradation: a transient read fault or a checksum /
  /// fingerprint mismatch on the pooled page triggers a bounded
  /// drop-and-re-read from the shard file (the pool's Discard primitive);
  /// only a fault that survives every re-read surfaces, as kCorruption or
  /// the underlying IO error. Fault-injection sites: "page_file.read" (the
  /// pool's reads) — a `torn` schedule there exercises exactly this path.
  Status TryPin(size_t s, PinnedShard* out) override;

  const BufferPool& pool() const { return pool_; }

 private:
  SsdGraphStore(ShardManifest manifest, std::unique_ptr<PageFile> file,
                size_t budget_pages)
      : manifest_(std::move(manifest)),
        file_(std::move(file)),
        pool_(*file_, budget_pages),
        verified_load_(manifest_.num_shards()) {}

  ShardManifest manifest_;
  std::unique_ptr<PageFile> file_;
  BufferPool pool_;
  // Per shard: the pool load_id whose bytes passed checksum + fingerprint
  // verification. Pins of the same load skip re-hashing the page, so repeat
  // pins of a resident shard (the negative sampler's adjacency probes) cost
  // a 72-byte header parse, not an O(page) scan. 0 = never verified.
  std::vector<std::atomic<uint64_t>> verified_load_;
};

/// Recomputes the whole-graph Graph::Fingerprint() from the shards alone by
/// folding the offset and adjacency slices in shard order (two sequential
/// passes) into `*out`. Equal to manifest().graph_fingerprint for an intact
/// store. Returns the first pin error.
Status ComposeGraphFingerprint(GraphStore& store, uint64_t* out);

/// Assembles the full in-memory Graph into `*out` (verification /
/// small-graph path). Returns the first pin error, or kCorruption when the
/// shards do not reproduce the manifest's graph fingerprint.
Status MaterializeGraph(GraphStore& store, Graph* out);

namespace internal {

/// Shard page payload byte size for a shard of `nodes` nodes and `adj`
/// adjacency entries (header + widened offsets + adjacency).
size_t ShardPayloadBytes(size_t nodes, size_t adj);

/// Serialises one shard into `page` (page.size() >= payload, zero-padded)
/// and returns its manifest entry. Exposed for the streaming ingest.
GraphShardInfo SerializeShardPage(const ShardView& view,
                                  std::span<std::byte> page);

/// Parses a shard page, verifying its checksum when `verify_checksum` is set
/// (skipped only for bytes a previous parse of the SAME disk read already
/// verified). nullopt on corruption. The view aliases `page`, which must be
/// 8-byte aligned and stay alive while the view is used.
std::optional<ShardView> ParseShardPage(std::span<const std::byte> page,
                                        bool verify_checksum = true);

/// Writes `manifest` to dir/graph.manifest (checksummed). False on IO error.
bool SaveShardManifest(const ShardManifest& manifest, const std::string& dir);

}  // namespace internal

}  // namespace sepriv

#endif  // SEPRIVGEMB_GRAPH_SHARD_H_
