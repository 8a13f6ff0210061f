#include "proximity/proximity_engine.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/atomic_file.h"
#include "util/check.h"
#include "util/env.h"
#include "util/mutex.h"
#include "util/rng.h"

namespace sepriv {
namespace {

// ---------------------------------------------------------------------------
// The shard pass
// ---------------------------------------------------------------------------

/// Splits [0, m) into at most `target` contiguous chunks of roughly equal
/// size whose boundaries never fall inside a run of equal `key(e)` — each
/// distinct source node is computed by exactly one chunk, so a chunk's
/// provider clone keeps its row cache warm and no row is computed twice.
template <typename KeyFn>
std::vector<std::pair<size_t, size_t>> AlignedChunks(size_t m, size_t target,
                                                     const KeyFn& key) {
  std::vector<std::pair<size_t, size_t>> chunks;
  if (m == 0) return chunks;
  target = std::max<size_t>(1, target);
  const size_t size = (m + target - 1) / target;
  size_t begin = 0;
  while (begin < m) {
    size_t end = std::min(m, begin + size);
    while (end < m && key(end) == key(end - 1)) ++end;  // don't split a group
    chunks.emplace_back(begin, end);
    begin = end;
  }
  return chunks;
}

/// Fixed-size pool of provider clones handed out to in-flight chunks. The
/// pool never holds more concurrent chunks than worker threads, so Acquire
/// cannot run dry; a mutex-guarded freelist is plenty (a few transitions per
/// chunk, not per edge).
class ClonePool {
 public:
  ClonePool(const ProximityProvider& prototype, size_t count) {
    clones_.reserve(count);
    free_.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      clones_.push_back(prototype.Clone());
      free_.push_back(clones_.back().get());
    }
  }

  ProximityProvider* Acquire() SEPRIV_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    SEPRIV_CHECK(!free_.empty(), "clone pool exhausted (pool misuse)");
    ProximityProvider* p = free_.back();
    free_.pop_back();
    return p;
  }

  void Release(ProximityProvider* p) SEPRIV_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    free_.push_back(p);
  }

 private:
  // clones_ is immutable after the constructor (workers mutate the clones
  // they own, never the vector); only the freelist needs the latch.
  std::vector<std::unique_ptr<ProximityProvider>> clones_;
  std::vector<ProximityProvider*> free_ SEPRIV_GUARDED_BY(mu_);
  Mutex mu_;
};

/// Runs one direction pass: every chunk queries a private clone for its
/// index range. `per_index` must write to a per-index slot — determinism
/// then follows from At() being pure in (i, j).
template <typename PerIndex>
void RunPass(const std::vector<std::pair<size_t, size_t>>& chunks,
             ClonePool& clones, ThreadPool& pool, const PerIndex& per_index) {
  pool.ParallelFor(chunks.size(), /*grain=*/1, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      ProximityProvider* p = clones.Acquire();
      for (size_t i = chunks[c].first; i < chunks[c].second; ++i)
        per_index(*p, i);
      clones.Release(p);
    }
  });
}

/// One shard's canonical edges materialised for the parallel passes:
/// edge-level memory for ONE shard only, the bound the out-of-core layer is
/// built around. ForEachEdge visits them in (u, v) order.
std::vector<Edge> ShardEdgeList(const ShardView& view) {
  std::vector<Edge> edges;
  edges.reserve(view.edge_count);
  view.ForEachEdge([&edges](size_t, NodeId u, NodeId v) {
    edges.push_back({u, v});
  });
  return edges;
}

/// Indices of `edges` (non-empty, sorted by (u, v)) ordered by (v, u): the
/// backward pass's row grouping. A stable counting sort by v keeps equal-v
/// edges in index order, which is u order, so it yields the same
/// permutation as a comparison sort on (v, u) in O(m + range of v).
std::vector<size_t> OrderByTarget(const std::vector<Edge>& edges) {
  const auto [lo, hi] = std::minmax_element(
      edges.begin(), edges.end(),
      [](const Edge& a, const Edge& b) { return a.v < b.v; });
  const NodeId v0 = lo->v;
  std::vector<size_t> next(static_cast<size_t>(hi->v - v0) + 2, 0);
  for (const Edge& e : edges) ++next[e.v - v0 + 1];
  for (size_t k = 1; k < next.size(); ++k) next[k] += next[k - 1];
  std::vector<size_t> by_v(edges.size());
  for (size_t e = 0; e < edges.size(); ++e) by_v[next[edges[e].v - v0]++] = e;
  return by_v;
}

// ---------------------------------------------------------------------------
// Cache serialisation
// ---------------------------------------------------------------------------

constexpr uint32_t kShardCacheMagic = 0x53505853;  // "SPXS"
constexpr uint32_t kShardCacheVersion = 1;

/// splitmix64-chained digest over a byte range, 8 bytes at a time with a
/// zero-padded tail. Guards the cache file against truncation/corruption.
uint64_t DigestBytes(const char* data, size_t len) {
  uint64_t h = 0xc3a5c85c97cb3127ULL ^ len;
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, 8);
    h = HashMix(h, word);
  }
  if (i < len) {
    uint64_t word = 0;
    std::memcpy(&word, data + i, len - i);
    h = HashMix(h, word);
  }
  return h;
}

/// The ProximityOptions fields in a fixed serialisation order, for both the
/// cache-file header (stored and re-verified field by field on load — a key
/// hash collision can therefore cause a spurious miss, never a wrong hit)
/// and the key hash. Serialised individually, never memcpy'd as a struct:
/// padding bytes would leak indeterminate memory into the file.
std::vector<uint64_t> OptionWords(const ProximityOptions& opts) {
  return {static_cast<uint64_t>(opts.katz_max_length),
          std::bit_cast<uint64_t>(opts.katz_beta),
          std::bit_cast<uint64_t>(opts.ppr_alpha),
          static_cast<uint64_t>(opts.ppr_iterations),
          static_cast<uint64_t>(opts.dw_window),
          static_cast<uint64_t>(opts.dw_walks_per_node),
          static_cast<uint64_t>(opts.dw_walk_length),
          opts.seed};
}

/// 64-bit digest of every ProximityOptions field. Part of the cache key, so
/// any option change — even one the current provider ignores — invalidates
/// conservatively (a spurious recompute, never a wrong hit).
uint64_t HashProximityOptions(const ProximityOptions& opts) {
  uint64_t h = 0xa0761d6478bd642fULL;
  for (uint64_t word : OptionWords(opts)) h = HashMix(h, word);
  return h;
}

uint64_t CacheKeyHash(const std::string& provider_name,
                      const ProximityOptions& opts) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ HashProximityOptions(opts);
  for (char c : provider_name) {
    h = HashMix(h, static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  return h;
}

template <typename T>
void AppendPod(std::string& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendDoubles(std::string& out, const std::vector<double>& v) {
  out.append(reinterpret_cast<const char*>(v.data()),
             v.size() * sizeof(double));
}

/// Bounds-checked cursor over a loaded cache file.
class ByteReader {
 public:
  ByteReader(const char* data, size_t len) : data_(data), len_(len) {}

  template <typename T>
  bool Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (cur_ + sizeof(T) > len_) return false;
    std::memcpy(out, data_ + cur_, sizeof(T));
    cur_ += sizeof(T);
    return true;
  }

  bool ReadString(size_t n, std::string* out) {
    if (cur_ + n > len_) return false;
    out->assign(data_ + cur_, n);
    cur_ += n;
    return true;
  }

  bool ReadDoubles(size_t n, std::vector<double>* out) {
    if (n > (len_ - cur_) / sizeof(double)) return false;
    out->resize(n);
    std::memcpy(out->data(), data_ + cur_, n * sizeof(double));
    cur_ += n * sizeof(double);
    return true;
  }

  bool AtEnd() const { return cur_ == len_; }

 private:
  const char* data_;
  size_t len_;
  size_t cur_ = 0;
};

std::string ShardCacheFilePath(const std::string& cache_root,
                               uint64_t graph_fingerprint, size_t shard_index,
                               uint64_t shard_fingerprint,
                               const std::string& provider_name,
                               const ProximityOptions& opts) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/shard_%zu_%016llx.bin", shard_index,
                static_cast<unsigned long long>(shard_fingerprint));
  return cache_root + "/" +
         ShardProximityCacheDirName(graph_fingerprint, provider_name, opts) +
         buf;
}

}  // namespace

ShardProximity ComputeShardProximities(const ShardView& view,
                                       const ProximityProvider& provider,
                                       ThreadPool& pool) {
  const std::vector<Edge> edges = ShardEdgeList(view);
  const size_t m = edges.size();
  ShardProximity out;
  out.forward.resize(m);
  out.backward.resize(m);
  if (m == 0) return out;

  const std::vector<size_t> by_v = OrderByTarget(edges);

  // Over-decompose (4 chunks per worker) so a chunk that hits expensive hub
  // rows doesn't straggle the pass; clones stay bounded by the thread count.
  const size_t threads = pool.num_threads();
  const size_t target_chunks = threads * 4;
  ClonePool clones(provider, threads);

  const auto fwd_chunks = AlignedChunks(
      m, target_chunks, [&edges](size_t e) { return edges[e].u; });
  RunPass(fwd_chunks, clones, pool,
          [&](const ProximityProvider& p, size_t i) {
            out.forward[i] = p.At(edges[i].u, edges[i].v);
          });

  const auto bwd_chunks = AlignedChunks(
      m, target_chunks, [&](size_t e) { return edges[by_v[e]].v; });
  RunPass(bwd_chunks, clones, pool,
          [&](const ProximityProvider& p, size_t i) {
            const size_t idx = by_v[i];
            out.backward[idx] = p.At(edges[idx].v, edges[idx].u);
          });

  return out;
}

std::string ShardProximityCacheDirName(uint64_t graph_fingerprint,
                                       const std::string& provider_name,
                                       const ProximityOptions& opts) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "proxshard_%016llx_%016llx",
                static_cast<unsigned long long>(graph_fingerprint),
                static_cast<unsigned long long>(
                    CacheKeyHash(provider_name, opts)));
  return buf;
}

bool SaveShardProximityCache(const std::string& cache_root,
                             uint64_t graph_fingerprint, size_t shard_index,
                             uint64_t shard_fingerprint,
                             const std::string& provider_name,
                             const ProximityOptions& opts,
                             const ShardProximity& prox) {
  if (cache_root.empty()) return false;
  if (prox.forward.size() != prox.backward.size()) return false;
  const std::string path =
      ShardCacheFilePath(cache_root, graph_fingerprint, shard_index,
                         shard_fingerprint, provider_name, opts);
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);  // best effort

  std::string blob;
  blob.reserve(96 + provider_name.size() +
               2 * prox.forward.size() * sizeof(double));
  AppendPod(blob, kShardCacheMagic);
  AppendPod(blob, kShardCacheVersion);
  AppendPod(blob, graph_fingerprint);
  AppendPod(blob, static_cast<uint64_t>(shard_index));
  AppendPod(blob, shard_fingerprint);
  AppendPod(blob, static_cast<uint64_t>(prox.forward.size()));
  for (uint64_t word : OptionWords(opts)) AppendPod(blob, word);
  AppendPod(blob, static_cast<uint32_t>(provider_name.size()));
  blob.append(provider_name);
  AppendDoubles(blob, prox.forward);
  AppendDoubles(blob, prox.backward);
  AppendPod(blob, DigestBytes(blob.data(), blob.size()));

  // Durable atomic publish (write-temp + fsync file and directory + rename):
  // concurrent loaders see either the old complete file or the new complete
  // file, never a torn write — and a crash right after Save returns cannot
  // resurface an empty or garbage file at the final path.
  return WriteFileAtomic(path, blob.data(), blob.size(), "proxcache.shard")
      .ok();
}

std::optional<ShardProximity> LoadShardProximityCache(
    const std::string& cache_root, uint64_t graph_fingerprint,
    size_t shard_index, uint64_t shard_fingerprint,
    const std::string& provider_name, const ProximityOptions& opts,
    size_t edge_count) {
  if (cache_root.empty()) return std::nullopt;
  const std::string path =
      ShardCacheFilePath(cache_root, graph_fingerprint, shard_index,
                         shard_fingerprint, provider_name, opts);
  std::string blob;
  if (!ReadFileToString(path, &blob, "proxcache.shard").ok())
    return std::nullopt;

  // Whole-file checksum first: truncated, appended-to, or bit-flipped files
  // all fail here before any field is trusted.
  if (blob.size() < sizeof(uint64_t)) return std::nullopt;
  const size_t payload_len = blob.size() - sizeof(uint64_t);
  uint64_t stored_digest = 0;
  std::memcpy(&stored_digest, blob.data() + payload_len, sizeof(uint64_t));
  if (DigestBytes(blob.data(), payload_len) != stored_digest)
    return std::nullopt;

  ByteReader reader(blob.data(), payload_len);
  uint32_t magic = 0, version = 0, name_len = 0;
  uint64_t graph_fp = 0, idx = 0, shard_fp = 0, count = 0;
  std::string name;
  if (!reader.Read(&magic) || magic != kShardCacheMagic) return std::nullopt;
  if (!reader.Read(&version) || version != kShardCacheVersion)
    return std::nullopt;
  if (!reader.Read(&graph_fp) || graph_fp != graph_fingerprint)
    return std::nullopt;
  if (!reader.Read(&idx) || idx != shard_index) return std::nullopt;
  // The shard fingerprint is verified from the HEADER, not just the file
  // name: a file renamed or hash-colliding into place still cannot serve
  // stale data for a changed shard.
  if (!reader.Read(&shard_fp) || shard_fp != shard_fingerprint)
    return std::nullopt;
  if (!reader.Read(&count) || count != edge_count) return std::nullopt;
  for (uint64_t expected : OptionWords(opts)) {
    uint64_t stored = 0;
    if (!reader.Read(&stored) || stored != expected) return std::nullopt;
  }
  if (!reader.Read(&name_len) || !reader.ReadString(name_len, &name) ||
      name != provider_name) {
    return std::nullopt;
  }

  ShardProximity out;
  if (!reader.ReadDoubles(edge_count, &out.forward) ||
      !reader.ReadDoubles(edge_count, &out.backward) || !reader.AtEnd()) {
    return std::nullopt;
  }
  return out;
}

ShardProximity CachedShardProximities(const ShardView& view,
                                      size_t shard_index,
                                      uint64_t graph_fingerprint,
                                      const ProximityProvider& provider,
                                      const ProximityOptions& opts,
                                      ThreadPool& pool,
                                      const std::string& cache_root) {
  if (cache_root.empty()) return ComputeShardProximities(view, provider, pool);
  const uint64_t shard_fp = ShardFingerprint(view);
  if (auto cached = LoadShardProximityCache(
          cache_root, graph_fingerprint, shard_index, shard_fp,
          provider.Name(), opts, view.edge_count)) {
    return std::move(*cached);
  }
  ShardProximity prox = ComputeShardProximities(view, provider, pool);
  if (!prox.forward.empty()) {
    SaveShardProximityCache(cache_root, graph_fingerprint, shard_index,
                            shard_fp, provider.Name(), opts, prox);
  }
  return prox;
}

EdgeProximity ShardedEdgeProximities(InMemoryGraphStore& store,
                                     const ProximityProvider& provider,
                                     const ProximityOptions& opts,
                                     ThreadPool& pool,
                                     const std::string& cache_root) {
  const size_t m = store.num_edges();
  std::vector<double> forward(m), backward(m);
  for (size_t s = 0; s < store.num_shards(); ++s) {
    const PinnedShard pin = store.Pin(s);
    const ShardView& view = pin.view();
    const ShardProximity sp = CachedShardProximities(
        view, s, store.fingerprint(), provider, opts, pool, cache_root);
    SEPRIV_CHECK(sp.forward.size() == view.edge_count,
                 "shard %zu proximity size %zu != edge count %zu", s,
                 sp.forward.size(), view.edge_count);
    std::copy(sp.forward.begin(), sp.forward.end(),
              forward.begin() + static_cast<ptrdiff_t>(view.edge_begin));
    std::copy(sp.backward.begin(), sp.backward.end(),
              backward.begin() + static_cast<ptrdiff_t>(view.edge_begin));
  }
  return FinalizeEdgeProximities(forward, backward);
}

EdgeProximity CachedEdgeProximities(const Graph& graph,
                                    const ProximityProvider& provider,
                                    const ProximityOptions& opts,
                                    size_t num_threads,
                                    const std::string& cache_dir) {
  InMemoryGraphStore store(graph);
  ThreadPool pool(ThreadPool::ResolveThreads(num_threads));
  return ShardedEdgeProximities(store, provider, opts, pool, cache_dir);
}

std::string ProximityCacheDirFromEnv() {
  return GetStringEnv("SEPRIV_PROXIMITY_CACHE");
}

}  // namespace sepriv
