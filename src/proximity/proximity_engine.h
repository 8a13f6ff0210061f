// Parallel proximity precomputation + persistent per-shard cache.
//
// Every precompute of the per-edge preference table runs one pass,
// ComputeShardProximities, over the shards of a GraphStore. The whole-graph
// table is that pass over a one-shard InMemoryGraphStore
// (CachedEdgeProximities); out-of-core training streams the same pass shard
// by shard. Inside a shard, both direction passes (forward grouped by source
// u, backward grouped by v) are split across a ThreadPool at source-node
// granularity, and each chunk queries a private ProximityProvider::Clone(),
// so a clone's row cache stays warm and no mutable state races. Because
// every provider's At() is a pure function of (i, j) — the sampled DeepWalk
// estimator derives its walks from a keyed per-source substream — the table
// is bit-identical to the serial ComputeEdgeProximities for every thread
// count and shard count, including the EdgeProximity min/max/normalized
// fields (ProximityFinalizer is the reduction tail of both).
//
// The persistent cache amortises the precompute across repeated runs
// (parameter sweeps, the bench/ family, restarted trainers): one versioned
// binary file per shard, in a directory keyed by the graph fingerprint +
// provider Name() + the full ProximityOptions, with the shard fingerprint in
// the file name and header and a whole-file checksum. Stale, truncated,
// corrupt, or mismatched files are misses and are recomputed — never
// trusted.

#ifndef SEPRIVGEMB_PROXIMITY_PROXIMITY_ENGINE_H_
#define SEPRIVGEMB_PROXIMITY_PROXIMITY_ENGINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/shard.h"
#include "proximity/proximity.h"
#include "util/thread_pool.h"

namespace sepriv {

/// Raw directional proximities of ONE shard's canonical edges, rebased to
/// [0, edge_count): forward[k] = At(u, v), backward[k] = At(v, u). The
/// global floor/scale reduction is deliberately absent — it needs every
/// shard, and ProximityFinalizer streams it without holding them.
struct ShardProximity {
  std::vector<double> forward;
  std::vector<double> backward;
};

/// Evaluates the provider on one shard's edges using the pool's workers; a
/// one-thread pool runs the same passes inline on the calling thread.
/// Per-edge values are bit-identical to ComputeEdgeProximities: At() is pure
/// in (i, j), whichever clone and thread evaluates it.
ShardProximity ComputeShardProximities(const ShardView& view,
                                       const ProximityProvider& provider,
                                       ThreadPool& pool);

/// Directory (no root) a graph+provider+options' per-shard cache entries
/// live under: "proxshard_<graph-fingerprint>_<key-hash>". The GRAPH
/// fingerprint is part of the directory identity, so entries can never be
/// reused across graphs; the per-shard file name and header then carry the
/// SHARD fingerprint, so within one graph a stale or foreign shard file is
/// a miss for exactly that shard — the others stay warm.
std::string ShardProximityCacheDirName(uint64_t graph_fingerprint,
                                       const std::string& provider_name,
                                       const ProximityOptions& opts);

/// Saves one shard's table under cache_root (subdirectory created on
/// demand) via write-to-temp + atomic rename, so concurrent readers and
/// writers of one directory (e.g. ctest -j sharing a cache) see only
/// complete files. Returns false on I/O failure — callers treat the cache
/// as best-effort.
bool SaveShardProximityCache(const std::string& cache_root,
                             uint64_t graph_fingerprint, size_t shard_index,
                             uint64_t shard_fingerprint,
                             const std::string& provider_name,
                             const ProximityOptions& opts,
                             const ShardProximity& prox);

/// Loads one shard's table; nullopt — never stale data — when missing,
/// truncated, checksum-corrupt, the wrong format version, or keyed to a
/// different graph/shard/provider/options/edge-count.
std::optional<ShardProximity> LoadShardProximityCache(
    const std::string& cache_root, uint64_t graph_fingerprint,
    size_t shard_index, uint64_t shard_fingerprint,
    const std::string& provider_name, const ProximityOptions& opts,
    size_t edge_count);

/// Cache-through per-shard pass: load when valid, else compute on `pool`
/// and save. Empty cache_root disables caching (and the shard hashing).
ShardProximity CachedShardProximities(const ShardView& view,
                                      size_t shard_index,
                                      uint64_t graph_fingerprint,
                                      const ProximityProvider& provider,
                                      const ProximityOptions& opts,
                                      ThreadPool& pool,
                                      const std::string& cache_root);

/// Whole-table front end over the sharded passes: iterates the store's
/// shards sequentially, then runs the shared finalisation. Bit-identical to
/// ComputeEdgeProximities on the equivalent graph for every shard count,
/// thread count, and cache state. The returned table is O(|E|), so it takes
/// an in-memory store, whose pins cannot fail; out-of-core consumers stream
/// through ComputeShardProximities + ProximityFinalizer instead.
EdgeProximity ShardedEdgeProximities(InMemoryGraphStore& store,
                                     const ProximityProvider& provider,
                                     const ProximityOptions& opts,
                                     ThreadPool& pool,
                                     const std::string& cache_root);

/// ShardedEdgeProximities over a one-shard InMemoryGraphStore of `graph`,
/// on a pool of `num_threads` workers (0 resolves to hardware concurrency,
/// the SePrivGEmbConfig convention). An empty `cache_dir` disables caching.
EdgeProximity CachedEdgeProximities(const Graph& graph,
                                    const ProximityProvider& provider,
                                    const ProximityOptions& opts,
                                    size_t num_threads,
                                    const std::string& cache_dir);

}  // namespace sepriv

#endif  // SEPRIVGEMB_PROXIMITY_PROXIMITY_ENGINE_H_
