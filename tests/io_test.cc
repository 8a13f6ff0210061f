#include "graph/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include "graph/generators.h"
#include "graph/shard.h"
#include "test_tmpdir.h"
#include "util/failpoint.h"

namespace sepriv {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return TestTmpDir() + "/" + name;
  }
};

TEST_F(IoTest, RoundTripPreservesGraph) {
  const Graph original = ErdosRenyiGnm(60, 150, 5);
  const std::string path = TempPath("roundtrip.edges");
  // sepriv-privflow: allow(leak): round-trip test serializes a synthetic fixture graph into a private temp dir
  ASSERT_TRUE(WriteEdgeList(original, path));
  const auto loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_edges(), original.num_edges());
  for (const Edge& e : original.Edges()) {
    EXPECT_TRUE(loaded->HasEdge(e.u, e.v));
  }
  std::remove(path.c_str());
}

TEST_F(IoTest, CommentsAndBlankLinesSkipped) {
  const std::string path = TempPath("comments.edges");
  {
    std::ofstream out(path);
    out << "# a comment\n\n% konect style\n0 1\n1 2\n";
  }
  const auto g = ReadEdgeList(path);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->num_edges(), 2u);
  std::remove(path.c_str());
}

TEST_F(IoTest, NonContiguousIdsRemappedOnRequest) {
  const std::string path = TempPath("sparseids.edges");
  {
    std::ofstream out(path);
    out << "1000 2000\n2000 30000\n";
  }
  const auto g = ReadEdgeList(path, /*remap_ids=*/true);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->num_nodes(), 3u);
  EXPECT_EQ(g->num_edges(), 2u);
  std::remove(path.c_str());
}

TEST_F(IoTest, LiteralIdsKeepIsolatedNodes) {
  const std::string path = TempPath("literal.edges");
  {
    std::ofstream out(path);
    out << "0 1\n5 6\n";
  }
  const auto g = ReadEdgeList(path);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->num_nodes(), 7u);  // nodes 2..4 exist but are isolated
  EXPECT_TRUE(g->HasEdge(5, 6));
  std::remove(path.c_str());
}

TEST_F(IoTest, NegativeIdRejectedLiteralMode) {
  // "-1" wraps to a huge uint64_t under strtoull semantics; it must be a
  // parse failure, not an absurd literal node id.
  const std::string path = TempPath("negative_literal.edges");
  {
    std::ofstream out(path);
    out << "0 1\n-1 2\n";
  }
  EXPECT_FALSE(ReadEdgeList(path, /*remap_ids=*/false).has_value());
  std::remove(path.c_str());
}

TEST_F(IoTest, NegativeIdRejectedRemapMode) {
  // remap_ids=true used to intern the wrapped id as a phantom node; it must
  // fail the same way as literal mode.
  const std::string path = TempPath("negative_remap.edges");
  {
    std::ofstream out(path);
    out << "0 1\n2 -3\n";
  }
  EXPECT_FALSE(ReadEdgeList(path, /*remap_ids=*/true).has_value());
  std::remove(path.c_str());
}

TEST_F(IoTest, NonNumericTokenRejected) {
  const std::string path = TempPath("nonnumeric.edges");
  {
    std::ofstream out(path);
    out << "0 1\n2 3x\n";
  }
  EXPECT_FALSE(ReadEdgeList(path).has_value());
  EXPECT_FALSE(ReadEdgeList(path, /*remap_ids=*/true).has_value());
  std::remove(path.c_str());
}

TEST_F(IoTest, AbsurdLiteralIdRejected) {
  const std::string path = TempPath("absurd.edges");
  {
    std::ofstream out(path);
    out << "0 999999999999\n";
  }
  EXPECT_FALSE(ReadEdgeList(path).has_value());
  std::remove(path.c_str());
}

TEST_F(IoTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(ReadEdgeList("/nonexistent/path/to.edges").has_value());
}

TEST_F(IoTest, MalformedLineReturnsNullopt) {
  const std::string path = TempPath("malformed.edges");
  {
    std::ofstream out(path);
    out << "0 1\nnot numbers\n";
  }
  EXPECT_FALSE(ReadEdgeList(path).has_value());
  std::remove(path.c_str());
}

TEST_F(IoTest, SelfLoopsInFileDropped) {
  const std::string path = TempPath("selfloop.edges");
  {
    std::ofstream out(path);
    out << "0 0\n0 1\n";
  }
  const auto g = ReadEdgeList(path);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->num_edges(), 1u);
  std::remove(path.c_str());
}

TEST_F(IoTest, WriteToUnwritablePathFails) {
  Graph g = PathGraph(3);
  // sepriv-privflow: allow(leak): round-trip test serializes a synthetic fixture graph into a private temp dir
  EXPECT_FALSE(WriteEdgeList(g, "/nonexistent/dir/out.edges"));
}

TEST_F(IoTest, WrittenFileStartsWithSummaryComment) {
  const std::string path = TempPath("header.edges");
  // sepriv-privflow: allow(leak): round-trip test serializes a synthetic fixture graph into a private temp dir
  ASSERT_TRUE(WriteEdgeList(PathGraph(3), path));
  std::ifstream in(path);
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first[0], '#');
  std::remove(path.c_str());
}

// --- streaming shard ingest ---------------------------------------------------

class ShardIngestTest : public IoTest {
 protected:
  void TearDown() override { failpoint::ClearAll(); }

  std::string TempDirFor(const std::string& name) {
    const std::string dir = TestTmpDir() + "/ingest_" + name;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return dir;
  }
};

TEST_F(ShardIngestTest, StreamingIngestMatchesInMemoryRead) {
  const Graph g = ErdosRenyiGnm(120, 400, 31);
  const std::string path = TempPath("ingest_equiv.edges");
  // sepriv-privflow: allow(leak): round-trip test serializes a synthetic fixture graph into a private temp dir
  ASSERT_TRUE(WriteEdgeList(g, path));

  for (size_t shards : {1UL, 4UL}) {
    const std::string dir = TempDirFor("equiv_" + std::to_string(shards));
    const auto manifest = ReadEdgeListToShards(path, dir, shards);
    ASSERT_TRUE(manifest.has_value());
    EXPECT_EQ(manifest->num_nodes, g.num_nodes());
    EXPECT_EQ(manifest->num_edges, g.num_edges());
    EXPECT_EQ(manifest->graph_fingerprint, g.Fingerprint());

    auto store = SsdGraphStore::Open(dir, 2);
    ASSERT_NE(store, nullptr);
    Graph back;
    ASSERT_TRUE(MaterializeGraph(*store, &back).ok());
    EXPECT_EQ(back.Fingerprint(), g.Fingerprint());
  }
  std::remove(path.c_str());
}

TEST_F(ShardIngestTest, DuplicatesSelfLoopsAndRemapHandledLikeReadEdgeList) {
  const std::string path = TempPath("ingest_messy.edges");
  {
    std::ofstream out(path);
    // Sparse ids, duplicate edges (both orders), a self loop, comments.
    out << "# messy input\n"
           "500 900\n900 500\n"  // duplicate in both orientations
           "900 7777\n"
           "500 500\n"  // self loop: dropped
           "% more\n"
           "7777 500\n";
  }
  const auto ref = ReadEdgeList(path, /*remap_ids=*/true);
  ASSERT_TRUE(ref.has_value());

  const std::string dir = TempDirFor("messy");
  const auto manifest =
      ReadEdgeListToShards(path, dir, 2, /*remap_ids=*/true);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->num_nodes, ref->num_nodes());
  EXPECT_EQ(manifest->num_edges, ref->num_edges());
  EXPECT_EQ(manifest->graph_fingerprint, ref->Fingerprint());
  std::remove(path.c_str());
}

TEST_F(ShardIngestTest, TinyBytesBudgetStillReproducesTheGraph) {
  const Graph g = BarabasiAlbert(4000, 6, 37);
  const std::string path = TempPath("ingest_budget.edges");
  // sepriv-privflow: allow(leak): round-trip test serializes a synthetic fixture graph into a private temp dir
  ASSERT_TRUE(WriteEdgeList(g, path));

  // ~190 KiB of raw adjacency against the minimum 64 KiB working-set budget
  // forces several scan groups, whose boundaries force extra shard cuts; the
  // composed graph must still be exact.
  const std::string dir = TempDirFor("budget");
  const auto manifest = ReadEdgeListToShards(path, dir, 2,
                                             /*remap_ids=*/false,
                                             /*bytes_budget=*/1);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_GT(manifest->num_shards(), 2u)
      << "a 64 KiB budget cannot hold this adjacency in 2 groups";
  EXPECT_EQ(manifest->graph_fingerprint, g.Fingerprint());

  auto store = SsdGraphStore::Open(dir, 2);
  ASSERT_NE(store, nullptr);
  uint64_t fingerprint = 0;
  ASSERT_TRUE(ComposeGraphFingerprint(*store, &fingerprint).ok());
  EXPECT_EQ(fingerprint, g.Fingerprint());
  std::remove(path.c_str());
}

TEST_F(ShardIngestTest, ShardReadFaultReturnsNulloptInsteadOfAborting) {
  const Graph g = ErdosRenyiGnm(120, 400, 41);
  const std::string path = TempPath("ingest_fault.edges");
  // sepriv-privflow: allow(leak): round-trip test serializes a synthetic fixture graph into a private temp dir
  ASSERT_TRUE(WriteEdgeList(g, path));

  // Every shard read fails, so the fingerprint pass over the freshly
  // written shards exhausts the pool's retries on its first pin.
  const std::string dir = TempDirFor("fault");
  ASSERT_TRUE(failpoint::SetSpec("page_file.read=err"));
  EXPECT_FALSE(ReadEdgeListToShards(path, dir, 2).has_value());
  EXPECT_EQ(failpoint::HitCount("page_file.read"),
            BufferPool::kMaxIoAttempts);
  std::remove(path.c_str());
}

TEST_F(ShardIngestTest, MalformedInputRejectedWithoutPartialOutput) {
  const std::string path = TempPath("ingest_bad.edges");
  {
    std::ofstream out(path);
    out << "0 1\n1 notanumber\n";
  }
  const std::string dir = TempDirFor("bad");
  EXPECT_FALSE(ReadEdgeListToShards(path, dir, 2).has_value());
  // No readable store may be left behind.
  EXPECT_EQ(SsdGraphStore::Open(dir, 2), nullptr);
  std::remove(path.c_str());

  EXPECT_FALSE(
      ReadEdgeListToShards("/nonexistent/file.edges", dir, 2).has_value());
}

}  // namespace
}  // namespace sepriv
