#include "graph/shard.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include <sys/stat.h>

#include "util/atomic_file.h"
#include "util/check.h"
#include "util/digest.h"
#include "util/rng.h"

namespace sepriv {
namespace {

// On-disk format identifiers. Bumping kFormatVersion invalidates every
// existing shard directory (LoadShardManifest returns nullopt). Version 2:
// page checksums and shard fingerprints are PageHash values.
constexpr uint64_t kShardPageMagic = 0x5345505653484452ULL;    // "SEPVSHDR"
constexpr uint64_t kManifestMagic = 0x5345505653484d46ULL;     // "SEPVSHMF"
constexpr uint64_t kFormatVersion = 2;
constexpr size_t kHeaderWords = 9;  // magic, version, 6 range fields, checksum
constexpr size_t kHeaderBytes = kHeaderWords * sizeof(uint64_t);
constexpr size_t kChecksumOffset = 8 * sizeof(uint64_t);
constexpr size_t kPageAlign = 4096;
constexpr uint64_t kShardFpSeed = 0x7c15d3a402b5c0e9ULL;

constexpr char kManifestName[] = "/graph.manifest";
constexpr char kPagesName[] = "/graph.shards";

uint64_t LoadWord(const std::byte* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

void StoreWord(std::byte* p, uint64_t w) { std::memcpy(p, &w, sizeof(w)); }

/// Page checksum: every payload byte except the checksum word itself.
uint64_t PageChecksum(std::span<const std::byte> page, size_t payload) {
  const uint64_t h = PageHash(page.data(), kChecksumOffset, kShardPageMagic);
  return PageHash(page.data() + kHeaderBytes, payload - kHeaderBytes, h);
}

/// Canonical-edge count of a shard: neighbours above the diagonal.
size_t CountShardEdges(const ShardView& view) {
  size_t count = 0;
  for (NodeId u = view.node_begin; u < view.node_end; ++u) {
    const auto row = view.Neighbors(u);
    count += static_cast<size_t>(
        row.end() - std::upper_bound(row.begin(), row.end(), u));
  }
  return count;
}

/// The graph's offset array widened to the on-disk type ({0} when empty).
std::vector<uint64_t> WidenedOffsets(const Graph& graph) {
  const auto offsets = graph.OffsetArray();
  if (offsets.empty()) return {0};
  return {offsets.begin(), offsets.end()};
}

/// Shard `info` of a resident graph, over its widened offsets.
ShardView ResidentView(const Graph& graph,
                       const std::vector<uint64_t>& offsets64,
                       const GraphShardInfo& info) {
  ShardView view;
  view.node_begin = static_cast<NodeId>(info.node_begin);
  view.node_end = static_cast<NodeId>(info.node_end);
  view.adj_begin = info.adj_begin;
  view.edge_begin = info.edge_begin;
  view.edge_count = info.edge_count;
  view.offsets = offsets64.data() + info.node_begin;
  view.adjacency = graph.AdjacencyArray().data() + info.adj_begin;
  return view;
}

/// BuildManifest's ranges, counts and edge numbering, fingerprints unset.
ShardManifest PlanManifest(const Graph& graph,
                           const std::vector<uint64_t>& offsets64,
                           size_t num_shards) {
  ShardManifest m;
  m.num_nodes = graph.num_nodes();
  m.num_edges = graph.num_edges();
  m.page_size = 0;
  size_t edge_cursor = 0;
  for (const auto& [b, e] : PlanShardRanges(graph, num_shards)) {
    GraphShardInfo info;
    info.node_begin = b;
    info.node_end = e;
    info.adj_begin = offsets64[b];
    info.adj_count = offsets64[e] - offsets64[b];
    info.edge_begin = edge_cursor;
    info.edge_count = CountShardEdges(ResidentView(graph, offsets64, info));
    m.shards.push_back(info);
    edge_cursor += info.edge_count;
  }
  SEPRIV_CHECK(edge_cursor == m.num_edges,
               "shard edge counts sum to %zu, graph has %llu edges",
               edge_cursor, static_cast<unsigned long long>(m.num_edges));
  return m;
}

/// The fingerprints PlanManifest leaves unset.
void SetFingerprints(const Graph& graph,
                     const std::vector<uint64_t>& offsets64,
                     ShardManifest& m) {
  m.graph_fingerprint = graph.Fingerprint();
  for (GraphShardInfo& info : m.shards) {
    info.fingerprint = ShardFingerprint(ResidentView(graph, offsets64, info));
  }
}

}  // namespace

size_t ShardManifest::ShardOfNode(NodeId v) const {
  SEPRIV_CHECK(static_cast<uint64_t>(v) < num_nodes,
               "node %u out of range for %llu nodes", v,
               static_cast<unsigned long long>(num_nodes));
  // First shard whose node_end exceeds v.
  size_t lo = 0, hi = shards.size();
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    if (shards[mid].node_begin <= v) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool ShardView::HasEdge(NodeId u, NodeId x) const {
  if (u == x) return false;
  return SortedContains(Neighbors(u), x);
}

uint64_t ShardFingerprint(const ShardView& view) {
  // Covers the CSR slice only: global edge numbering is derivable, and
  // excluding it keeps the fingerprint a pure function of the rows — the
  // invalidation key for per-shard proximity cache entries.
  const size_t nodes = view.node_end - view.node_begin;
  const size_t adj = view.offsets[nodes] - view.adj_begin;
  uint64_t h = HashMix(HashMix(kShardFpSeed, view.node_begin), view.node_end);
  h = PageHash(view.offsets, (nodes + 1) * sizeof(uint64_t), h);
  return PageHash(view.adjacency, adj * sizeof(NodeId), h);
}

std::vector<std::pair<NodeId, NodeId>> PlanShardRanges(const Graph& graph,
                                                       size_t num_shards) {
  const size_t n = graph.num_nodes();
  if (n == 0) return {{0, 0}};
  const size_t s = std::clamp<size_t>(num_shards, 1, n);
  const auto offsets = graph.OffsetArray();
  const size_t total = offsets[n];
  std::vector<std::pair<NodeId, NodeId>> ranges;
  ranges.reserve(s);
  NodeId begin = 0;
  for (size_t k = 0; k < s; ++k) {
    NodeId end;
    if (k + 1 == s) {
      end = static_cast<NodeId>(n);
    } else {
      // Cut where cumulative adjacency crosses the proportional target,
      // leaving at least one node for each remaining shard.
      const size_t target = total * (k + 1) / s;
      const NodeId max_end = static_cast<NodeId>(n - (s - 1 - k));
      end = begin + 1;
      while (end < max_end && offsets[end] < target) ++end;
    }
    ranges.emplace_back(begin, end);
    begin = end;
  }
  return ranges;
}

ShardManifest BuildManifest(const Graph& graph, size_t num_shards) {
  const std::vector<uint64_t> offsets64 = WidenedOffsets(graph);
  ShardManifest m = PlanManifest(graph, offsets64, num_shards);
  SetFingerprints(graph, offsets64, m);
  return m;
}

InMemoryGraphStore::InMemoryGraphStore(const Graph& graph, size_t num_shards)
    : graph_(graph),
      offsets64_(WidenedOffsets(graph)),
      manifest_(PlanManifest(graph, offsets64_, num_shards)) {}

const ShardManifest& InMemoryGraphStore::manifest() const {
  std::call_once(fingerprinted_,
                 [this] { SetFingerprints(graph_, offsets64_, manifest_); });
  return manifest_;
}

Status InMemoryGraphStore::TryPin(size_t s, PinnedShard* out) {
  SEPRIV_CHECK(s < manifest_.num_shards(), "shard %zu out of range", s);
  // The graph itself keeps the memory alive.
  *out = PinnedShard(ResidentView(graph_, offsets64_, manifest_.shards[s]),
                     nullptr);
  return OkStatus();
}

namespace internal {

size_t ShardPayloadBytes(size_t nodes, size_t adj) {
  return kHeaderBytes + (nodes + 1) * sizeof(uint64_t) + adj * sizeof(NodeId);
}

GraphShardInfo SerializeShardPage(const ShardView& view,
                                  std::span<std::byte> page) {
  const size_t nodes = view.node_end - view.node_begin;
  const size_t adj = view.offsets[nodes] - view.adj_begin;
  const size_t payload = ShardPayloadBytes(nodes, adj);
  SEPRIV_CHECK(page.size() >= payload,
               "shard page too small: %zu bytes for %zu-byte payload",
               page.size(), payload);
  std::fill(page.begin(), page.end(), std::byte{0});

  const size_t edge_count =
      view.edge_count != 0 ? view.edge_count : CountShardEdges(view);

  std::byte* p = page.data();
  StoreWord(p + 0 * 8, kShardPageMagic);
  StoreWord(p + 1 * 8, kFormatVersion);
  StoreWord(p + 2 * 8, view.node_begin);
  StoreWord(p + 3 * 8, view.node_end);
  StoreWord(p + 4 * 8, view.adj_begin);
  StoreWord(p + 5 * 8, adj);
  StoreWord(p + 6 * 8, view.edge_begin);
  StoreWord(p + 7 * 8, edge_count);
  std::memcpy(p + kHeaderBytes, view.offsets, (nodes + 1) * sizeof(uint64_t));
  std::memcpy(p + kHeaderBytes + (nodes + 1) * sizeof(uint64_t),
              view.adjacency, adj * sizeof(NodeId));
  StoreWord(p + kChecksumOffset, PageChecksum(page, payload));

  GraphShardInfo info;
  info.node_begin = view.node_begin;
  info.node_end = view.node_end;
  info.adj_begin = view.adj_begin;
  info.adj_count = adj;
  info.edge_begin = view.edge_begin;
  info.edge_count = edge_count;
  info.fingerprint = ShardFingerprint(view);
  return info;
}

std::optional<ShardView> ParseShardPage(std::span<const std::byte> page,
                                        bool verify_checksum) {
  if (page.size() < kHeaderBytes) return std::nullopt;
  const std::byte* p = page.data();
  if (LoadWord(p + 0 * 8) != kShardPageMagic ||
      LoadWord(p + 1 * 8) != kFormatVersion) {
    return std::nullopt;
  }
  const uint64_t node_begin = LoadWord(p + 2 * 8);
  const uint64_t node_end = LoadWord(p + 3 * 8);
  const uint64_t adj_begin = LoadWord(p + 4 * 8);
  const uint64_t adj_count = LoadWord(p + 5 * 8);
  const uint64_t edge_begin = LoadWord(p + 6 * 8);
  const uint64_t edge_count = LoadWord(p + 7 * 8);
  if (node_end < node_begin || node_end > UINT32_MAX) return std::nullopt;
  const size_t nodes = node_end - node_begin;
  // Size guards before computing the payload, so corrupt counts cannot
  // overflow the arithmetic below.
  if (nodes >= page.size() / sizeof(uint64_t) ||
      adj_count > page.size() / sizeof(NodeId)) {
    return std::nullopt;
  }
  const size_t payload = ShardPayloadBytes(nodes, adj_count);
  if (payload > page.size()) return std::nullopt;
  if (verify_checksum &&
      LoadWord(p + kChecksumOffset) != PageChecksum(page, payload)) {
    return std::nullopt;
  }

  ShardView view;
  view.node_begin = static_cast<NodeId>(node_begin);
  view.node_end = static_cast<NodeId>(node_end);
  view.adj_begin = adj_begin;
  view.edge_begin = edge_begin;
  view.edge_count = edge_count;
  view.offsets = reinterpret_cast<const uint64_t*>(p + kHeaderBytes);
  view.adjacency = reinterpret_cast<const NodeId*>(
      p + kHeaderBytes + (nodes + 1) * sizeof(uint64_t));
  // The offsets slice must be internally consistent with the header ranges.
  if (view.offsets[0] != adj_begin ||
      view.offsets[nodes] != adj_begin + adj_count) {
    return std::nullopt;
  }
  return view;
}

bool SaveShardManifest(const ShardManifest& manifest, const std::string& dir) {
  std::vector<uint64_t> words;
  words.reserve(7 + manifest.shards.size() * 7 + 1);
  words.push_back(kManifestMagic);
  words.push_back(kFormatVersion);
  words.push_back(manifest.num_nodes);
  words.push_back(manifest.num_edges);
  words.push_back(manifest.page_size);
  words.push_back(manifest.graph_fingerprint);
  words.push_back(manifest.num_shards());
  for (const GraphShardInfo& s : manifest.shards) {
    words.push_back(s.node_begin);
    words.push_back(s.node_end);
    words.push_back(s.adj_begin);
    words.push_back(s.adj_count);
    words.push_back(s.edge_begin);
    words.push_back(s.edge_count);
    words.push_back(s.fingerprint);
  }
  words.push_back(FnvDigest(words.data(), words.size() * sizeof(uint64_t)));

  // Atomic + durable publish (write-temp, fsync file, rename, fsync dir):
  // the bare tmp+rename this used to do could publish an empty manifest
  // after a crash, because nothing forced the data out before the rename.
  // Fault-injection sites: shard_manifest.{write,sync,rename}.
  const std::string path = dir + kManifestName;
  return WriteFileAtomic(path, words.data(), words.size() * sizeof(uint64_t),
                         "shard_manifest")
      .ok();
}

}  // namespace internal

std::optional<ShardManifest> LoadShardManifest(const std::string& dir) {
  const std::string path = dir + kManifestName;
  std::string bytes;
  // Fault-injection site: shard_manifest.read (torn ⇒ checksum rejects).
  if (!ReadFileToString(path, &bytes, "shard_manifest").ok()) {
    return std::nullopt;
  }
  if (bytes.size() % sizeof(uint64_t) != 0) return std::nullopt;
  std::vector<uint64_t> words(bytes.size() / sizeof(uint64_t));
  std::memcpy(words.data(), bytes.data(), bytes.size());
  if (words.size() < 8) return std::nullopt;

  const uint64_t checksum = words.back();
  words.pop_back();
  if (checksum != FnvDigest(words.data(), words.size() * sizeof(uint64_t))) {
    return std::nullopt;
  }
  if (words[0] != kManifestMagic || words[1] != kFormatVersion) {
    return std::nullopt;
  }
  ShardManifest m;
  m.num_nodes = words[2];
  m.num_edges = words[3];
  m.page_size = words[4];
  m.graph_fingerprint = words[5];
  const uint64_t num_shards = words[6];
  if (words.size() != 7 + num_shards * 7) return std::nullopt;
  m.shards.resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    const uint64_t* p = words.data() + 7 + s * 7;
    m.shards[s] = {p[0], p[1], p[2], p[3], p[4], p[5], p[6]};
  }
  return m;
}

bool WriteGraphShards(const Graph& graph, const std::string& dir,
                      size_t num_shards) {
  ::mkdir(dir.c_str(), 0755);  // EEXIST is fine; Create below reports others

  ShardManifest manifest = BuildManifest(graph, num_shards);
  size_t max_payload = sizeof(uint64_t);  // empty-graph shard still has a page
  for (const GraphShardInfo& s : manifest.shards) {
    max_payload = std::max(
        max_payload, internal::ShardPayloadBytes(s.node_end - s.node_begin,
                                                 s.adj_count));
  }
  manifest.page_size = (max_payload + kPageAlign - 1) / kPageAlign * kPageAlign;

  auto file = PageFile::Create(dir + kPagesName, manifest.page_size);
  if (file == nullptr) return false;

  std::vector<uint64_t> offsets64;
  if (graph.OffsetArray().empty()) {
    offsets64.assign(1, 0);
  } else {
    offsets64.assign(graph.OffsetArray().begin(), graph.OffsetArray().end());
  }
  std::vector<std::byte> page(manifest.page_size);
  for (const GraphShardInfo& s : manifest.shards) {
    ShardView view;
    view.node_begin = static_cast<NodeId>(s.node_begin);
    view.node_end = static_cast<NodeId>(s.node_end);
    view.adj_begin = s.adj_begin;
    view.edge_begin = s.edge_begin;
    view.edge_count = s.edge_count;
    view.offsets = offsets64.data() + s.node_begin;
    view.adjacency = graph.AdjacencyArray().data() + s.adj_begin;
    const GraphShardInfo written = internal::SerializeShardPage(view, page);
    SEPRIV_CHECK(written.fingerprint == s.fingerprint,
                 "shard fingerprint diverged during serialisation");
    size_t index = 0;
    if (!file->TryAppendPage(page.data(), &index).ok()) return false;
  }
  if (!file->TrySync().ok()) return false;
  return internal::SaveShardManifest(manifest, dir);
}

std::unique_ptr<SsdGraphStore> SsdGraphStore::Open(const std::string& dir,
                                                   size_t budget_pages) {
  auto manifest = LoadShardManifest(dir);
  if (!manifest.has_value() || manifest->page_size == 0) return nullptr;
  auto file = PageFile::Open(dir + kPagesName, manifest->page_size);
  if (file == nullptr || file->num_pages() != manifest->num_shards()) {
    return nullptr;  // page file missing, truncated, or shard count mismatch
  }
  if (budget_pages == 0) budget_pages = kDefaultPoolPages;
  // >= 2 frames: a sequential consumer keeps its current shard pinned while
  // probing another shard's adjacency (negative-sampling exclusion checks).
  budget_pages = std::max<size_t>(2, budget_pages);
  return std::unique_ptr<SsdGraphStore>(
      new SsdGraphStore(std::move(*manifest), std::move(file), budget_pages));
}

Status SsdGraphStore::TryPin(size_t s, PinnedShard* out) {
  *out = PinnedShard();
  if (s >= manifest_.num_shards()) {
    return FailedPreconditionError("shard index out of range");
  }
  // A checksum/fingerprint mismatch on the pooled bytes may be a transient
  // in-flight fault (a torn read the kernel happened to surface as success);
  // dropping the cached page and re-reading from the shard file gives the
  // store a bounded number of chances to observe the true on-disk bytes.
  // Only a mismatch that survives every re-read is reported — at that point
  // the file itself is damaged, and graph data (unlike cache entries) cannot
  // be recomputed.
  Status last_error;
  for (size_t attempt = 1; attempt <= BufferPool::kMaxIoAttempts; ++attempt) {
    BufferPool::PageHandle handle;
    SEPRIV_RETURN_IF_ERROR(pool_.TryPin(s, &handle));
    const std::span<const std::byte> page(handle.data(), pool_.page_size());

    const bool already_verified =
        verified_load_[s].load(std::memory_order_acquire) == handle.load_id();
    auto view = internal::ParseShardPage(page, !already_verified);
    bool matches = view.has_value();
    if (matches && !already_verified) {
      const GraphShardInfo& info = manifest_.shards[s];
      matches = ShardFingerprint(*view) == info.fingerprint &&
                view->node_begin == info.node_begin &&
                view->node_end == info.node_end &&
                view->edge_begin == info.edge_begin &&
                view->edge_count == info.edge_count;
      if (matches) {
        verified_load_[s].store(handle.load_id(), std::memory_order_release);
      }
    }
    if (matches) {
      auto hold = std::make_shared<BufferPool::PageHandle>(std::move(handle));
      *out = PinnedShard(*view, std::shared_ptr<const void>(hold, hold.get()));
      return OkStatus();
    }
    last_error = CorruptionError("shard " + std::to_string(s) + " in " +
                                 file_->path() +
                                 " failed checksum/manifest verification");
    // Drop our pin, then drop the pool's cached copy so the next attempt
    // re-reads from disk instead of re-hashing the same bad frame.
    handle = BufferPool::PageHandle();
    pool_.Discard(s);
  }
  return last_error;
}

Status ComposeGraphFingerprint(GraphStore& store, uint64_t* out) {
  const ShardManifest& m = store.layout();
  // Same fold as Graph::Fingerprint(): counts, then EVERY offset value in
  // node order, then every adjacency entry. Shard boundaries share an offset
  // value (offsets[node_end] == next shard's offsets[node_begin]), so shards
  // after the first skip their leading value.
  uint64_t h = 0x5e9e7a6b5ee2c9d1ULL;
  h = HashMix(h, m.num_nodes);
  h = HashMix(h, m.num_edges);
  for (size_t s = 0; s < m.num_shards(); ++s) {
    PinnedShard pin;
    SEPRIV_RETURN_IF_ERROR(store.TryPin(s, &pin));
    const ShardView& view = pin.view();
    const size_t nodes = view.node_end - view.node_begin;
    for (size_t i = (s == 0 ? 0 : 1); i <= nodes; ++i) {
      h = HashMix(h, view.offsets[i]);
    }
  }
  for (size_t s = 0; s < m.num_shards(); ++s) {
    PinnedShard pin;
    SEPRIV_RETURN_IF_ERROR(store.TryPin(s, &pin));
    const ShardView& view = pin.view();
    const size_t adj = view.offsets[view.node_end - view.node_begin] -
                       view.adj_begin;
    for (size_t k = 0; k < adj; ++k) {
      h = HashMix(h, static_cast<uint64_t>(view.adjacency[k]));
    }
  }
  *out = h;
  return OkStatus();
}

Status MaterializeGraph(GraphStore& store, Graph* out) {
  std::vector<Edge> edges;
  edges.reserve(store.num_edges());
  for (size_t s = 0; s < store.num_shards(); ++s) {
    PinnedShard pin;
    SEPRIV_RETURN_IF_ERROR(store.TryPin(s, &pin));
    pin->ForEachEdge([&](size_t e, NodeId u, NodeId v) {
      SEPRIV_CHECK(e == edges.size(), "edge index discontinuity at shard %zu",
                   s);
      edges.push_back({u, v});
    });
  }
  Graph g = Graph::FromEdges(store.num_nodes(), std::move(edges));
  if (g.Fingerprint() != store.fingerprint()) {
    return CorruptionError(
        "materialised graph does not match the store fingerprint");
  }
  *out = std::move(g);
  return OkStatus();
}

}  // namespace sepriv
