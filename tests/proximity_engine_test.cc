#include "proximity/proximity_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "graph/generators.h"
#include "graph/shard.h"
#include "test_tmpdir.h"

namespace sepriv {
namespace {

ProximityOptions TestOptions() {
  ProximityOptions opts;
  opts.dw_walks_per_node = 60;  // keep the sampled estimator fast
  return opts;
}

/// Element-wise EXPECT_EQ: bit-identical, not approximately equal.
void ExpectBitIdentical(const EdgeProximity& a, const EdgeProximity& b) {
  ASSERT_EQ(a.values.size(), b.values.size());
  ASSERT_EQ(a.normalized.size(), b.normalized.size());
  for (size_t e = 0; e < a.values.size(); ++e) {
    EXPECT_EQ(a.values[e], b.values[e]) << "values[" << e << "]";
    EXPECT_EQ(a.normalized[e], b.normalized[e]) << "normalized[" << e << "]";
  }
  EXPECT_EQ(a.min_positive, b.min_positive);
  EXPECT_EQ(a.max_value, b.max_value);
  EXPECT_EQ(a.normalized_min_positive, b.normalized_min_positive);
}

class ProximityEngineTest : public ::testing::Test {
 protected:
  std::string TempDirFor(const std::string& name) {
    const std::string dir = TestTmpDir() + "/prox_cache_" + name;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return dir;
  }

  std::string CachePathFor(const std::string& dir, const Graph& g,
                           const ProximityProvider& p,
                           const ProximityOptions& opts) {
    return dir + "/" + ProximityCacheFileName(g, p.Name(), opts);
  }
};

// --- thread invariance ------------------------------------------------------

class AllKindsEngineTest : public ::testing::TestWithParam<ProximityKind> {};

TEST_P(AllKindsEngineTest, BitIdenticalAcrossThreadCounts) {
  const Graph g = ErdosRenyiGnm(150, 450, 11);
  const ProximityOptions opts = TestOptions();
  const auto provider = MakeProximity(GetParam(), g, opts);
  const EdgeProximity serial = ComputeEdgeProximities(g, *provider);
  for (size_t threads : {1UL, 2UL, 4UL, 8UL}) {
    ThreadPool pool(threads);
    const EdgeProximity parallel = ParallelEdgeProximities(g, *provider, pool);
    ExpectBitIdentical(serial, parallel);
  }
}

TEST_P(AllKindsEngineTest, CloneMatchesOriginalUnderInterleavedQueries) {
  const Graph g = ErdosRenyiGnm(80, 200, 3);
  const ProximityOptions opts = TestOptions();
  const auto provider = MakeProximity(GetParam(), g, opts);
  const auto clone = provider->Clone();
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->Name(), provider->Name());
  // Deliberately thrash the row caches in different orders: At() must be a
  // pure function of the pair, not of query history.
  for (const Edge& e : g.Edges()) {
    EXPECT_EQ(clone->At(e.v, e.u), provider->At(e.v, e.u));
    EXPECT_EQ(clone->At(e.u, e.v), provider->At(e.u, e.v));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllKindsEngineTest, ::testing::ValuesIn(AllProximityKinds()),
    [](const auto& info) { return ProximityKindName(info.param); });

TEST_F(ProximityEngineTest, ConvenienceOverloadMatchesPoolOverload) {
  const Graph g = BarabasiAlbert(300, 3, 5);
  const auto provider = MakeProximity(ProximityKind::kKatz, g, TestOptions());
  const EdgeProximity serial = ComputeEdgeProximities(g, *provider);
  ExpectBitIdentical(serial, ParallelEdgeProximities(g, *provider, size_t{3}));
}

TEST_F(ProximityEngineTest, EmptyGraphProducesEmptyTable) {
  const Graph g = Graph::FromEdges(4, {});
  const auto provider = MakeProximity(ProximityKind::kCommonNeighbors, g);
  ThreadPool pool(2);
  const EdgeProximity ep = ParallelEdgeProximities(g, *provider, pool);
  EXPECT_TRUE(ep.values.empty());
  EXPECT_TRUE(ep.normalized.empty());
}

// --- graph fingerprint ------------------------------------------------------

TEST_F(ProximityEngineTest, FingerprintStableAndStructureSensitive) {
  const Graph a = ErdosRenyiGnm(60, 150, 5);
  const Graph b = ErdosRenyiGnm(60, 150, 5);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  // One different edge, one different seed, one extra isolated node: all
  // distinct fingerprints.
  const Graph c = ErdosRenyiGnm(60, 150, 6);
  EXPECT_NE(a.Fingerprint(), c.Fingerprint());
  const Graph d = Graph::FromEdges(3, {{0, 1}});
  const Graph e = Graph::FromEdges(4, {{0, 1}});
  EXPECT_NE(d.Fingerprint(), e.Fingerprint());
}

// --- cache round trip -------------------------------------------------------

TEST_F(ProximityEngineTest, CacheRoundTripIsBitIdentical) {
  const std::string dir = TempDirFor("roundtrip");
  const Graph g = ErdosRenyiGnm(100, 260, 9);
  const ProximityOptions opts = TestOptions();
  const auto provider = MakeProximity(ProximityKind::kAdamicAdar, g, opts);
  const EdgeProximity computed = ComputeEdgeProximities(g, *provider);

  ASSERT_TRUE(
      SaveEdgeProximityCache(dir, g, provider->Name(), opts, computed));
  const auto loaded =
      LoadEdgeProximityCache(dir, g, provider->Name(), opts);
  ASSERT_TRUE(loaded.has_value());
  ExpectBitIdentical(computed, *loaded);
}

TEST_F(ProximityEngineTest, CachedFrontEndColdThenWarmBitIdentical) {
  const std::string dir = TempDirFor("front_end");
  const Graph g = BarabasiAlbert(200, 4, 13);
  const ProximityOptions opts = TestOptions();
  const auto provider =
      MakeProximity(ProximityKind::kPersonalizedPageRank, g, opts);
  ThreadPool pool(4);

  const EdgeProximity cold =
      CachedEdgeProximities(g, *provider, opts, pool, dir);
  ASSERT_TRUE(std::filesystem::exists(CachePathFor(dir, g, *provider, opts)));
  const EdgeProximity warm =
      CachedEdgeProximities(g, *provider, opts, pool, dir);
  ExpectBitIdentical(cold, warm);
  // And both match the serial reference engine.
  ExpectBitIdentical(cold, ComputeEdgeProximities(g, *provider));
}

TEST_F(ProximityEngineTest, EmptyCacheDirDisablesCaching) {
  const Graph g = ErdosRenyiGnm(50, 120, 2);
  const auto provider = MakeProximity(ProximityKind::kJaccard, g);
  ThreadPool pool(2);
  const EdgeProximity ep =
      CachedEdgeProximities(g, *provider, {}, pool, /*cache_dir=*/"");
  EXPECT_EQ(ep.values.size(), g.num_edges());
}

// --- cache invalidation -----------------------------------------------------

TEST_F(ProximityEngineTest, CacheMissesOnDifferentGraph) {
  const std::string dir = TempDirFor("graph_key");
  const Graph g = ErdosRenyiGnm(90, 200, 21);
  const ProximityOptions opts = TestOptions();
  const auto provider = MakeProximity(ProximityKind::kKatz, g, opts);
  ASSERT_TRUE(SaveEdgeProximityCache(dir, g, provider->Name(), opts,
                                     ComputeEdgeProximities(g, *provider)));

  const Graph other = ErdosRenyiGnm(90, 200, 22);
  EXPECT_FALSE(
      LoadEdgeProximityCache(dir, other, provider->Name(), opts).has_value());
}

TEST_F(ProximityEngineTest, CacheMissesOnDifferentProviderOrOptions) {
  const std::string dir = TempDirFor("key_parts");
  const Graph g = ErdosRenyiGnm(90, 200, 23);
  const ProximityOptions opts = TestOptions();
  const auto provider = MakeProximity(ProximityKind::kDeepWalk, g, opts);
  ASSERT_TRUE(SaveEdgeProximityCache(dir, g, provider->Name(), opts,
                                     ComputeEdgeProximities(g, *provider)));

  // Different provider name.
  EXPECT_FALSE(LoadEdgeProximityCache(dir, g, "other_provider", opts)
                   .has_value());
  // Any options change invalidates, even a field this provider ignores.
  ProximityOptions changed = opts;
  changed.katz_beta = 0.07;
  EXPECT_FALSE(
      LoadEdgeProximityCache(dir, g, provider->Name(), changed).has_value());
  changed = opts;
  changed.seed += 1;
  EXPECT_FALSE(
      LoadEdgeProximityCache(dir, g, provider->Name(), changed).has_value());
  // The original key still hits.
  EXPECT_TRUE(
      LoadEdgeProximityCache(dir, g, provider->Name(), opts).has_value());
}

// --- corrupt / truncated cache recovery -------------------------------------

TEST_F(ProximityEngineTest, TruncatedCacheFileRejectedAndRecomputed) {
  const std::string dir = TempDirFor("truncated");
  const Graph g = ErdosRenyiGnm(80, 180, 31);
  const ProximityOptions opts = TestOptions();
  const auto provider = MakeProximity(ProximityKind::kResourceAllocation, g);
  const EdgeProximity computed = ComputeEdgeProximities(g, *provider);
  ASSERT_TRUE(
      SaveEdgeProximityCache(dir, g, provider->Name(), opts, computed));

  const std::string path = CachePathFor(dir, g, *provider, opts);
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);
  EXPECT_FALSE(
      LoadEdgeProximityCache(dir, g, provider->Name(), opts).has_value());

  // The cache-through front end must silently recompute and repair the file.
  ThreadPool pool(2);
  const EdgeProximity recomputed =
      CachedEdgeProximities(g, *provider, opts, pool, dir);
  ExpectBitIdentical(computed, recomputed);
  EXPECT_TRUE(
      LoadEdgeProximityCache(dir, g, provider->Name(), opts).has_value());
}

TEST_F(ProximityEngineTest, BitFlippedCacheFileRejected) {
  const std::string dir = TempDirFor("bitflip");
  const Graph g = ErdosRenyiGnm(80, 180, 33);
  const ProximityOptions opts = TestOptions();
  const auto provider = MakeProximity(ProximityKind::kCommonNeighbors, g);
  ASSERT_TRUE(SaveEdgeProximityCache(dir, g, provider->Name(), opts,
                                     ComputeEdgeProximities(g, *provider)));

  const std::string path = CachePathFor(dir, g, *provider, opts);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekp(static_cast<std::streamoff>(std::filesystem::file_size(path) / 2));
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(-1, std::ios::cur);
  byte = static_cast<char>(byte ^ 0x40);
  f.write(&byte, 1);
  f.close();

  EXPECT_FALSE(
      LoadEdgeProximityCache(dir, g, provider->Name(), opts).has_value());
}

TEST_F(ProximityEngineTest, GarbageFileRejected) {
  const std::string dir = TempDirFor("garbage");
  const Graph g = ErdosRenyiGnm(40, 90, 35);
  const ProximityOptions opts = TestOptions();
  const auto provider = MakeProximity(ProximityKind::kJaccard, g);
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(CachePathFor(dir, g, *provider, opts),
                      std::ios::binary);
    out << "this is not a proximity cache";
  }
  EXPECT_FALSE(
      LoadEdgeProximityCache(dir, g, provider->Name(), opts).has_value());
  {
    std::ofstream out(CachePathFor(dir, g, *provider, opts),
                      std::ios::binary);  // zero-byte file
  }
  EXPECT_FALSE(
      LoadEdgeProximityCache(dir, g, provider->Name(), opts).has_value());
}

// --- shard-granular passes (the out-of-core pipeline) ------------------------

/// Wraps a provider and counts At() calls across all clones, so tests can
/// assert exactly how much proximity work a cache state caused.
class CountingProvider final : public ProximityProvider {
 public:
  CountingProvider(std::unique_ptr<ProximityProvider> inner,
                   std::shared_ptr<std::atomic<uint64_t>> calls)
      : inner_(std::move(inner)), calls_(std::move(calls)) {}

  std::string Name() const override { return inner_->Name(); }
  double At(NodeId i, NodeId j) const override {
    calls_->fetch_add(1, std::memory_order_relaxed);
    return inner_->At(i, j);
  }
  std::unique_ptr<ProximityProvider> Clone() const override {
    return std::make_unique<CountingProvider>(inner_->Clone(), calls_);
  }

 private:
  std::unique_ptr<ProximityProvider> inner_;
  std::shared_ptr<std::atomic<uint64_t>> calls_;
};

TEST_P(AllKindsEngineTest, ShardedEngineMatchesSerialForEveryShardCount) {
  const Graph g = ErdosRenyiGnm(120, 320, 13);
  const ProximityOptions opts = TestOptions();
  const auto provider = MakeProximity(GetParam(), g, opts);
  const EdgeProximity serial = ComputeEdgeProximities(g, *provider);
  ThreadPool pool(2);
  for (size_t shards : {1UL, 4UL, 9UL}) {
    InMemoryGraphStore store(g, shards);
    ExpectBitIdentical(
        serial, ShardedEdgeProximities(store, *provider, opts, pool,
                                       /*cache_root=*/""));
  }
}

class ShardCacheTest : public ProximityEngineTest {
 protected:
  /// Path of shard `s`'s cache file, resolved by directory listing (the
  /// name embeds the shard fingerprint).
  static std::string ShardCacheFile(const std::string& cache_root,
                                    const Graph& g,
                                    const ProximityProvider& p,
                                    const ProximityOptions& opts, size_t s) {
    const std::string dir =
        cache_root + "/" +
        ShardProximityCacheDirName(g.Fingerprint(), p.Name(), opts);
    const std::string prefix = "shard_" + std::to_string(s) + "_";
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().filename().string().rfind(prefix, 0) == 0) {
        return entry.path().string();
      }
    }
    return "";
  }
};

TEST_F(ShardCacheTest, ColdThenWarmBitIdenticalAndWarmComputesNothing) {
  const std::string cache_root = TempDirFor("shard_warm");
  const Graph g = ErdosRenyiGnm(100, 280, 17);
  const ProximityOptions opts = TestOptions();
  auto calls = std::make_shared<std::atomic<uint64_t>>(0);
  const CountingProvider provider(
      MakeProximity(ProximityKind::kCommonNeighbors, g, opts), calls);
  ThreadPool pool(2);
  InMemoryGraphStore store(g, 5);

  const EdgeProximity cold =
      ShardedEdgeProximities(store, provider, opts, pool, cache_root);
  // The engine evaluates every canonical edge in both directions, once.
  EXPECT_EQ(calls->load(), 2 * g.num_edges());

  calls->store(0);
  const EdgeProximity warm =
      ShardedEdgeProximities(store, provider, opts, pool, cache_root);
  EXPECT_EQ(calls->load(), 0u) << "warm pass must not re-evaluate anything";
  ExpectBitIdentical(cold, warm);
}

TEST_F(ShardCacheTest, InvalidatingOneShardRecomputesOnlyThatShard) {
  const std::string cache_root = TempDirFor("shard_invalidate");
  const Graph g = ErdosRenyiGnm(100, 280, 19);
  const ProximityOptions opts = TestOptions();
  auto calls = std::make_shared<std::atomic<uint64_t>>(0);
  const CountingProvider provider(
      MakeProximity(ProximityKind::kCommonNeighbors, g, opts), calls);
  ThreadPool pool(2);
  InMemoryGraphStore store(g, 5);
  ASSERT_EQ(store.num_shards(), 5u);

  const EdgeProximity cold =
      ShardedEdgeProximities(store, provider, opts, pool, cache_root);

  // Corrupt shard 2's entry (checksum failure) and delete shard 0's
  // (missing file): exactly those two shards recompute, the rest load.
  const std::string f2 = ShardCacheFile(cache_root, g, provider, opts, 2);
  ASSERT_FALSE(f2.empty());
  {
    std::fstream f(f2, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(64);
    char byte = 0x7f;
    f.write(&byte, 1);
  }
  const std::string f0 = ShardCacheFile(cache_root, g, provider, opts, 0);
  ASSERT_FALSE(f0.empty());
  std::filesystem::remove(f0);

  calls->store(0);
  const EdgeProximity repaired =
      ShardedEdgeProximities(store, provider, opts, pool, cache_root);
  const size_t affected_edges = store.manifest().shards[0].edge_count +
                                store.manifest().shards[2].edge_count;
  EXPECT_EQ(calls->load(), 2 * affected_edges)
      << "recompute must touch exactly the invalidated shards";
  EXPECT_LT(calls->load(), 2 * g.num_edges());
  ExpectBitIdentical(cold, repaired);

  // The repair re-saved both entries: a further pass is fully warm again.
  calls->store(0);
  const EdgeProximity rewarmed =
      ShardedEdgeProximities(store, provider, opts, pool, cache_root);
  EXPECT_EQ(calls->load(), 0u);
  ExpectBitIdentical(cold, rewarmed);
}

TEST_F(ShardCacheTest, ShardCacheRoundTripAndKeyMismatchesMiss) {
  const std::string cache_root = TempDirFor("shard_keys");
  const Graph g = ErdosRenyiGnm(60, 150, 23);
  const ProximityOptions opts = TestOptions();
  const auto provider =
      MakeProximity(ProximityKind::kPreferentialAttachment, g, opts);
  ThreadPool pool(1);
  InMemoryGraphStore store(g, 3);
  PinnedShard pin = store.Pin(1);
  const uint64_t shard_fp = store.manifest().shards[1].fingerprint;

  const ShardProximity computed =
      ComputeShardProximities(pin.view(), *provider, pool);
  ASSERT_EQ(computed.forward.size(), pin->edge_count);
  ASSERT_TRUE(SaveShardProximityCache(cache_root, g.Fingerprint(), 1,
                                      shard_fp, provider->Name(), opts,
                                      computed));

  const auto loaded = LoadShardProximityCache(
      cache_root, g.Fingerprint(), 1, shard_fp, provider->Name(), opts,
      pin->edge_count);
  ASSERT_TRUE(loaded.has_value());
  for (size_t k = 0; k < computed.forward.size(); ++k) {
    EXPECT_EQ(loaded->forward[k], computed.forward[k]);
    EXPECT_EQ(loaded->backward[k], computed.backward[k]);
  }

  // Any key component off by one bit is a miss, never stale data: shard
  // index, shard fingerprint, graph fingerprint, provider, edge count.
  EXPECT_FALSE(LoadShardProximityCache(cache_root, g.Fingerprint(), 2,
                                       shard_fp, provider->Name(), opts,
                                       pin->edge_count)
                   .has_value());
  EXPECT_FALSE(LoadShardProximityCache(cache_root, g.Fingerprint(), 1,
                                       shard_fp ^ 1, provider->Name(), opts,
                                       pin->edge_count)
                   .has_value());
  EXPECT_FALSE(LoadShardProximityCache(cache_root, g.Fingerprint() ^ 1, 1,
                                       shard_fp, provider->Name(), opts,
                                       pin->edge_count)
                   .has_value());
  EXPECT_FALSE(LoadShardProximityCache(cache_root, g.Fingerprint(), 1,
                                       shard_fp, "other-provider", opts,
                                       pin->edge_count)
                   .has_value());
  EXPECT_FALSE(LoadShardProximityCache(cache_root, g.Fingerprint(), 1,
                                       shard_fp, provider->Name(), opts,
                                       pin->edge_count - 1)
                   .has_value());
}

}  // namespace
}  // namespace sepriv
