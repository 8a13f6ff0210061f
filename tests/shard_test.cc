#include "graph/shard.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "test_tmpdir.h"
#include "util/digest.h"

namespace sepriv {
namespace {

class ShardTest : public ::testing::Test {
 protected:
  std::string TempDirFor(const std::string& name) {
    const std::string dir = TestTmpDir() + "/shard_" + name;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return dir;
  }

  /// Flips the `mask` bits of the byte at `offset` in `path`.
  static void CorruptByte(const std::string& path, size_t offset,
                          unsigned char mask = 0x40) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char c;
    f.read(&c, 1);
    c = static_cast<char>(c ^ mask);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
  }
};

// --- planning + in-memory store ---------------------------------------------

TEST_F(ShardTest, PlanCoversAllNodesContiguously) {
  const Graph g = BarabasiAlbert(500, 4, 3);
  for (size_t shards : {1UL, 2UL, 5UL, 16UL, 499UL, 5000UL}) {
    const auto plan = PlanShardRanges(g, shards);
    ASSERT_FALSE(plan.empty());
    EXPECT_EQ(plan.front().first, 0u);
    EXPECT_EQ(plan.back().second, g.num_nodes());
    for (size_t i = 0; i < plan.size(); ++i) {
      EXPECT_LT(plan[i].first, plan[i].second) << "empty shard " << i;
      if (i > 0) {
        EXPECT_EQ(plan[i].first, plan[i - 1].second);
      }
    }
    EXPECT_LE(plan.size(), std::min(shards, g.num_nodes()));
  }
}

TEST_F(ShardTest, InMemoryViewsMatchGraphRowByRow) {
  const Graph g = ErdosRenyiGnm(200, 600, 7);
  InMemoryGraphStore store(g, 7);
  const ShardManifest& m = store.manifest();
  EXPECT_EQ(m.num_nodes, g.num_nodes());
  EXPECT_EQ(m.num_edges, g.num_edges());
  EXPECT_EQ(m.graph_fingerprint, g.Fingerprint());

  for (size_t s = 0; s < store.num_shards(); ++s) {
    PinnedShard pin = store.Pin(s);
    const ShardView& v = pin.view();
    for (NodeId u = v.node_begin; u < v.node_end; ++u) {
      EXPECT_EQ(m.ShardOfNode(u), s);
      const auto got = v.Neighbors(u);
      const auto want = g.Neighbors(u);
      ASSERT_EQ(got.size(), want.size()) << "node " << u;
      for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]);
      EXPECT_EQ(v.Degree(u), g.Degree(u));
    }
  }
}

TEST_F(ShardTest, ForEachEdgeReproducesGraphEdgesInGlobalOrder) {
  const Graph g = BarabasiAlbert(150, 3, 11);
  for (size_t shards : {1UL, 3UL, 10UL}) {
    InMemoryGraphStore store(g, shards);
    std::vector<Edge> walked;
    size_t expect_e = 0;
    for (size_t s = 0; s < store.num_shards(); ++s) {
      PinnedShard pin = store.Pin(s);
      EXPECT_EQ(pin->edge_begin, expect_e);
      pin->ForEachEdge([&](size_t e, NodeId u, NodeId v) {
        EXPECT_EQ(e, walked.size());
        walked.push_back({u, v});
      });
      expect_e += pin->edge_count;
    }
    ASSERT_EQ(walked.size(), g.Edges().size());
    for (size_t e = 0; e < walked.size(); ++e) {
      EXPECT_EQ(walked[e].u, g.Edges()[e].u);
      EXPECT_EQ(walked[e].v, g.Edges()[e].v);
    }
  }
}

TEST_F(ShardTest, HasEdgeAgreesWithGraph) {
  const Graph g = ErdosRenyiGnm(60, 160, 9);
  InMemoryGraphStore store(g, 4);
  for (size_t s = 0; s < store.num_shards(); ++s) {
    PinnedShard pin = store.Pin(s);
    for (NodeId u = pin->node_begin; u < pin->node_end; ++u) {
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        EXPECT_EQ(pin->HasEdge(u, v), g.HasEdge(u, v))
            << "(" << u << "," << v << ")";
      }
    }
  }
}

// --- fingerprints ------------------------------------------------------------

TEST_F(ShardTest, ComposeGraphFingerprintMatchesGraphForEveryShardCount) {
  const Graph g = BarabasiAlbert(300, 4, 17);
  for (size_t shards : {1UL, 2UL, 7UL, 64UL}) {
    InMemoryGraphStore store(g, shards);
    uint64_t fingerprint = 0;
    ASSERT_TRUE(ComposeGraphFingerprint(store, &fingerprint).ok());
    EXPECT_EQ(fingerprint, g.Fingerprint()) << shards << " shards";
  }
}

TEST_F(ShardTest, ShardFingerprintIsLocalToTheShard) {
  const Graph a = ErdosRenyiGnm(100, 300, 1);
  const Graph b = ErdosRenyiGnm(100, 300, 2);  // different edges everywhere
  InMemoryGraphStore sa(a, 4), sb(b, 4);
  // Same node ranges (plans can differ; compare only equal ranges) must give
  // different fingerprints for different rows; and a shard's fingerprint is
  // independent of the shard count when its range happens to coincide.
  for (size_t s = 0; s < 4; ++s) {
    const auto va = sa.Pin(s), vb = sb.Pin(s);
    if (va->node_begin == vb->node_begin && va->node_end == vb->node_end) {
      EXPECT_NE(ShardFingerprint(va.view()), ShardFingerprint(vb.view()));
    }
  }
  EXPECT_EQ(sa.manifest().shards[0].fingerprint,
            ShardFingerprint(sa.Pin(0).view()));
}

TEST_F(ShardTest, InMemoryStoreHashesOnItsFirstManifestRead) {
  const Graph g = BarabasiAlbert(300, 4, 17);
  for (size_t shards : {1UL, 7UL}) {
    InMemoryGraphStore store(g, shards);
    // An uncached shard pass reads only the layout: no hash is computed.
    for (size_t s = 0; s < store.num_shards(); ++s) store.Pin(s);
    EXPECT_EQ(store.layout().graph_fingerprint, 0u) << shards << " shards";

    // First reads from several threads at once hash the graph once, to the
    // values the definitions give.
    std::vector<uint64_t> seen(4, 0);
    {
      std::vector<std::jthread> readers;
      for (uint64_t& fp : seen) {
        readers.emplace_back([&store, &fp] { fp = store.fingerprint(); });
      }
    }
    for (uint64_t fp : seen) EXPECT_EQ(fp, g.Fingerprint());
    const ShardManifest& m = store.manifest();
    ASSERT_EQ(m.num_shards(), store.num_shards());
    for (size_t s = 0; s < m.num_shards(); ++s) {
      EXPECT_EQ(m.shards[s].fingerprint, ShardFingerprint(store.Pin(s).view()))
          << "shard " << s << " of " << shards;
    }
  }
}

// --- SSD round trip -----------------------------------------------------------

TEST_F(ShardTest, SsdRoundTripMaterializesIdenticalGraph) {
  const Graph g = BarabasiAlbert(400, 5, 23);
  for (size_t shards : {1UL, 6UL, 32UL}) {
    const std::string dir = TempDirFor("rt_" + std::to_string(shards));
    ASSERT_TRUE(WriteGraphShards(g, dir, shards));

    const auto manifest = LoadShardManifest(dir);
    ASSERT_TRUE(manifest.has_value());
    EXPECT_EQ(manifest->graph_fingerprint, g.Fingerprint());

    auto store = SsdGraphStore::Open(dir, 2);
    ASSERT_NE(store, nullptr);
    uint64_t fingerprint = 0;
    ASSERT_TRUE(ComposeGraphFingerprint(*store, &fingerprint).ok());
    EXPECT_EQ(fingerprint, g.Fingerprint());

    Graph back;
    ASSERT_TRUE(MaterializeGraph(*store, &back).ok());
    EXPECT_EQ(back.Fingerprint(), g.Fingerprint());
    ASSERT_EQ(back.num_edges(), g.num_edges());
    const BufferPoolStats stats = store->pool().stats();
    EXPECT_GT(stats.misses, 0u);
  }
}

TEST_F(ShardTest, RepeatPinsOfResidentShardAreCacheHits) {
  const Graph g = BarabasiAlbert(200, 3, 5);
  const std::string dir = TempDirFor("repins");
  ASSERT_TRUE(WriteGraphShards(g, dir, 4));
  auto store = SsdGraphStore::Open(dir, 2);
  ASSERT_NE(store, nullptr);
  { PinnedShard p = store->Pin(1); }
  const uint64_t misses_before = store->pool().stats().misses;
  for (int i = 0; i < 5; ++i) {
    PinnedShard p = store->Pin(1);
    EXPECT_EQ(p->node_begin, store->manifest().shards[1].node_begin);
  }
  EXPECT_EQ(store->pool().stats().misses, misses_before);
}

// --- corruption ---------------------------------------------------------------

TEST_F(ShardTest, CorruptManifestIsRejected) {
  const Graph g = BarabasiAlbert(100, 3, 29);
  const std::string dir = TempDirFor("badmanifest");
  ASSERT_TRUE(WriteGraphShards(g, dir, 3));
  CorruptByte(dir + "/graph.manifest", 40);
  EXPECT_FALSE(LoadShardManifest(dir).has_value());
  EXPECT_EQ(SsdGraphStore::Open(dir, 2), nullptr);
}

TEST_F(ShardTest, TruncatedShardFileIsRejectedAtOpen) {
  const Graph g = BarabasiAlbert(100, 3, 31);
  const std::string dir = TempDirFor("truncshards");
  ASSERT_TRUE(WriteGraphShards(g, dir, 3));
  const auto manifest = LoadShardManifest(dir);
  ASSERT_TRUE(manifest.has_value());
  std::filesystem::resize_file(dir + "/graph.shards",
                               manifest->page_size * 2 + 100);
  EXPECT_EQ(SsdGraphStore::Open(dir, 2), nullptr);
}

TEST_F(ShardTest, CorruptShardPageAbortsOnPin) {
  // Re-run the test in a fresh process for the death, so the child never
  // depends on which threads or locks the parent happens to hold at fork.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Graph g = BarabasiAlbert(100, 3, 37);
  const std::string dir = TempDirFor("badpage");
  ASSERT_TRUE(WriteGraphShards(g, dir, 3));
  const auto manifest = LoadShardManifest(dir);
  ASSERT_TRUE(manifest.has_value());
  // Flip a byte inside shard 1's adjacency payload.
  CorruptByte(dir + "/graph.shards", manifest->page_size + 200);
  auto store = SsdGraphStore::Open(dir, 2);
  ASSERT_NE(store, nullptr);
  { PinnedShard ok = store->Pin(0); }  // other shards stay readable
  EXPECT_DEATH({ PinnedShard bad = store->Pin(1); }, "");
}

TEST_F(ShardTest, EveryCorruptPayloadByteIsCaughtOnTryPin) {
  const Graph g = BarabasiAlbert(60, 3, 44);
  const std::string dir = TempDirFor("sweep");
  ASSERT_TRUE(WriteGraphShards(g, dir, 3));
  const auto manifest = LoadShardManifest(dir);
  ASSERT_TRUE(manifest.has_value());
  const GraphShardInfo& info = manifest->shards[1];
  // An odd adjacency count leaves a half-filled last word in the payload,
  // so the sweep also covers the hash's zero-padded final word.
  ASSERT_EQ(info.adj_count % 2, 1u);
  const size_t payload = internal::ShardPayloadBytes(
      info.node_end - info.node_begin, info.adj_count);
  const size_t page_begin = manifest->page_size;  // shard 1's page
  // Header, checksum word, offsets and adjacency: one flipped byte anywhere
  // must surface as kCorruption (after the bounded re-reads) and serve no
  // view. The mask differs from the torn-read failpoint's 0x40 at byte 16,
  // so a torn schedule can add corruption but never undo this one.
  for (size_t b = 0; b < payload; ++b) {
    CorruptByte(dir + "/graph.shards", page_begin + b, 0x81);
    auto store = SsdGraphStore::Open(dir, 2);
    ASSERT_NE(store, nullptr);
    PinnedShard pin;
    EXPECT_EQ(store->TryPin(1, &pin).code(), StatusCode::kCorruption)
        << "byte " << b;
    EXPECT_EQ(pin->adjacency, nullptr) << "byte " << b;
    CorruptByte(dir + "/graph.shards", page_begin + b, 0x81);  // restore
  }
  auto store = SsdGraphStore::Open(dir, 2);
  ASSERT_NE(store, nullptr);
  PinnedShard pin;
  EXPECT_TRUE(store->TryPin(1, &pin).ok());
}

TEST_F(ShardTest, VersionOneShardDirectoryIsRejected) {
  const Graph g = BarabasiAlbert(100, 3, 47);
  const std::string dir = TempDirFor("v1");
  ASSERT_TRUE(WriteGraphShards(g, dir, 3));
  const std::string path = dir + "/graph.manifest";
  const auto reseal = [&path](uint64_t version) {
    std::vector<uint64_t> words(std::filesystem::file_size(path) /
                                sizeof(uint64_t));
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.read(reinterpret_cast<char*>(words.data()),
           static_cast<std::streamsize>(words.size() * sizeof(uint64_t)));
    words[1] = version;
    words.back() =
        FnvDigest(words.data(), (words.size() - 1) * sizeof(uint64_t));
    f.seekp(0);
    f.write(reinterpret_cast<const char*>(words.data()),
            static_cast<std::streamsize>(words.size() * sizeof(uint64_t)));
  };
  // Control: a re-sealed current manifest still loads, so the rejection
  // below is the version check, not a broken seal.
  reseal(2);
  ASSERT_TRUE(LoadShardManifest(dir).has_value());
  // Version 1 checksummed its pages with FNV-1a; a v1 directory must be
  // rewritten, never read with the new hash.
  reseal(1);
  EXPECT_FALSE(LoadShardManifest(dir).has_value());
  EXPECT_EQ(SsdGraphStore::Open(dir, 2), nullptr);
}

// --- streaming-ingest building blocks ----------------------------------------

TEST_F(ShardTest, SerializeParseRoundTripPreservesEveryField) {
  const Graph g = ErdosRenyiGnm(50, 120, 41);
  InMemoryGraphStore store(g, 2);
  PinnedShard pin = store.Pin(1);
  const ShardView& v = pin.view();

  const size_t nodes = v.node_end - v.node_begin;
  const size_t adj = v.offsets[nodes] - v.offsets[0];
  std::vector<std::byte> page(
      (internal::ShardPayloadBytes(nodes, adj) + 4095) & ~size_t{4095});
  const GraphShardInfo info = internal::SerializeShardPage(v, page);
  EXPECT_EQ(info.fingerprint, ShardFingerprint(v));

  const auto parsed = internal::ParseShardPage(page);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->node_begin, v.node_begin);
  EXPECT_EQ(parsed->node_end, v.node_end);
  EXPECT_EQ(parsed->edge_begin, v.edge_begin);
  EXPECT_EQ(parsed->edge_count, v.edge_count);
  EXPECT_EQ(ShardFingerprint(*parsed), ShardFingerprint(v));

  // Any flipped payload byte must be caught by the checksum, header fields
  // included (edge_begin/edge_count have no other check at this layer).
  const size_t payload = internal::ShardPayloadBytes(nodes, adj);
  for (size_t b = 0; b < payload; ++b) {
    page[b] ^= std::byte{1};
    EXPECT_FALSE(internal::ParseShardPage(page).has_value()) << "byte " << b;
    page[b] ^= std::byte{1};
  }
}

}  // namespace
}  // namespace sepriv
