#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "embedding/subgraph_sampler.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace sepriv {
namespace {

TEST(GraphTest, FromEdgesBasic) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));  // undirected
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(GraphTest, SelfLoopsDropped) {
  Graph g = Graph::FromEdges(3, {{0, 0}, {0, 1}, {2, 2}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(GraphTest, DuplicatesAndReversalsMerged) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 0}, {0, 1}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.Degree(1), 2u);
}

TEST(GraphTest, InferredNodeCount) {
  Graph g = Graph::FromEdges(0, {{0, 5}});
  EXPECT_EQ(g.num_nodes(), 6u);
}

TEST(GraphDeathTest, ExplicitNodeCountSmallerThanEndpointAborts) {
  // num_nodes = 3 cannot host endpoint 5: silently building the CSR would
  // index offsets out of bounds, so construction must abort.
  EXPECT_DEATH(Graph::FromEdges(3, {{0, 5}}), "out of range");
  EXPECT_DEATH(Graph::FromEdges(5, {{0, 1}, {2, 5}}), "out of range");
}

TEST(GraphTest, ExplicitNodeCountCoveringEndpointsAccepted) {
  // Exactly covering (max endpoint + 1) and over-provisioning (isolated
  // tail nodes) are both valid.
  const Graph exact = Graph::FromEdges(6, {{0, 5}});
  EXPECT_EQ(exact.num_nodes(), 6u);
  EXPECT_TRUE(exact.HasEdge(0, 5));
  const Graph padded = Graph::FromEdges(9, {{0, 5}});
  EXPECT_EQ(padded.num_nodes(), 9u);
  EXPECT_EQ(padded.Degree(8), 0u);
}

TEST(GraphTest, IsolatedNodesAllowed) {
  Graph g = Graph::FromEdges(10, {{0, 1}});
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.Degree(7), 0u);
  EXPECT_TRUE(g.Neighbors(7).empty());
}

TEST(GraphTest, NeighborsSorted) {
  Graph g = Graph::FromEdges(5, {{2, 4}, {2, 0}, {2, 3}, {2, 1}});
  const auto nbrs = g.Neighbors(2);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
}

TEST(GraphTest, CanonicalEdgeList) {
  Graph g = Graph::FromEdges(4, {{3, 1}, {2, 0}});
  for (const Edge& e : g.Edges()) EXPECT_LT(e.u, e.v);
  EXPECT_EQ(g.Edges().size(), 2u);
  // Sorted lexicographically.
  EXPECT_EQ(g.Edges()[0].u, 0u);
  EXPECT_EQ(g.Edges()[1].u, 1u);
}

TEST(GraphTest, DegreeAndAverageDegree) {
  Graph g = StarGraph(5);  // center 0, 4 leaves
  EXPECT_EQ(g.Degree(0), 4u);
  EXPECT_EQ(g.Degree(3), 1u);
  EXPECT_EQ(g.MaxDegree(), 4u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 2.0 * 4 / 5);
}

TEST(GraphTest, CommonNeighborCount) {
  // Square 0-1-2-3-0: opposite corners share two neighbours.
  Graph g = CycleGraph(4);
  EXPECT_EQ(g.CommonNeighborCount(0, 2), 2u);
  EXPECT_EQ(g.CommonNeighborCount(0, 1), 0u);
}

TEST(GraphTest, CommonNeighborsInClique) {
  Graph g = CompleteGraph(5);
  // Any two nodes share the other three.
  EXPECT_EQ(g.CommonNeighborCount(0, 1), 3u);
}

TEST(GraphTest, AdjacencyRowDistanceTwins) {
  // Star leaves are structurally equivalent: identical adjacency rows.
  Graph g = StarGraph(6);
  EXPECT_DOUBLE_EQ(g.AdjacencyRowSquaredDistance(1, 2), 0.0);
  // Center (deg 5) vs leaf (deg 1) share no common neighbours: |N(0) Δ N(1)|
  // = 5 + 1 = 6 (the mutual edge contributes at both column 0 and column 1).
  EXPECT_DOUBLE_EQ(g.AdjacencyRowSquaredDistance(0, 1), 6.0);
}

TEST(GraphTest, AdjacencyRowDistanceSymmetric) {
  Graph g = KarateClub();
  for (NodeId i = 0; i < 10; ++i) {
    for (NodeId j = 0; j < 10; ++j) {
      EXPECT_DOUBLE_EQ(g.AdjacencyRowSquaredDistance(i, j),
                       g.AdjacencyRowSquaredDistance(j, i));
    }
  }
}

TEST(GraphTest, AdjacencyRowDistanceViaSymmetricDifference) {
  Graph g = PathGraph(5);  // 0-1-2-3-4
  // N(0)={1}, N(2)={1,3}: symmetric difference {3} -> 1.
  EXPECT_DOUBLE_EQ(g.AdjacencyRowSquaredDistance(0, 2), 1.0);
  // N(0)={1}, N(4)={3}: difference 2.
  EXPECT_DOUBLE_EQ(g.AdjacencyRowSquaredDistance(0, 4), 2.0);
}

TEST(GraphTest, DegreeVector) {
  Graph g = PathGraph(4);
  const auto deg = g.DegreeVector();
  ASSERT_EQ(deg.size(), 4u);
  EXPECT_EQ(deg[0], 1.0);
  EXPECT_EQ(deg[1], 2.0);
}

TEST(GraphTest, SummaryMentionsCounts) {
  Graph g = PathGraph(3);
  const std::string s = g.Summary();
  EXPECT_NE(s.find("|V|=3"), std::string::npos);
  EXPECT_NE(s.find("|E|=2"), std::string::npos);
}

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphDeathTest, OutOfRangeEndpointAborts) {
  EXPECT_DEATH(Graph::FromEdges(2, {{0, 5}}), "out of range");
}

// --- Deterministic toy generators -------------------------------------------

TEST(ToyGraphTest, PathGraph) {
  Graph g = PathGraph(5);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(2), 2u);
}

TEST(ToyGraphTest, CycleGraph) {
  Graph g = CycleGraph(6);
  EXPECT_EQ(g.num_edges(), 6u);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(g.Degree(v), 2u);
}

TEST(ToyGraphTest, CompleteGraph) {
  Graph g = CompleteGraph(6);
  EXPECT_EQ(g.num_edges(), 15u);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(g.Degree(v), 5u);
}

TEST(ToyGraphTest, BarbellGraph) {
  Graph g = BarbellGraph(10);
  // Two K5 (10 edges each) + bridge.
  EXPECT_EQ(g.num_edges(), 21u);
  EXPECT_TRUE(g.HasEdge(4, 5));
  EXPECT_EQ(g.Degree(4), 5u);  // clique + bridge
  EXPECT_EQ(g.Degree(0), 4u);
}

TEST(ToyGraphTest, GridGraph) {
  Graph g = GridGraph(3, 4);
  EXPECT_EQ(g.num_nodes(), 12u);
  // Edges: 3*3 horizontal + 2*4 vertical = 17.
  EXPECT_EQ(g.num_edges(), 17u);
  EXPECT_EQ(g.Degree(0), 2u);   // corner
  EXPECT_EQ(g.Degree(5), 4u);   // interior
}

TEST(ToyGraphTest, KarateClubCanonicalSize) {
  Graph g = KarateClub();
  EXPECT_EQ(g.num_nodes(), 34u);
  EXPECT_EQ(g.num_edges(), 78u);
  EXPECT_EQ(g.Degree(33), 17u);  // instructor hub
  EXPECT_EQ(g.Degree(0), 16u);   // president hub
}

// --- Membership accelerator (O(1) HasEdge fast path) ------------------------

// Ascending rows of every length 0..70, some holding the extreme ids 0 and
// UINT32_MAX: SortedContains must answer as std::binary_search does for
// every element, both its neighbours, and both extremes.
TEST(SortedContainsTest, MatchesBinarySearchOnAscendingRows) {
  Rng rng(2024);
  for (size_t len = 0; len <= 70; ++len) {
    // Shape 0: gaps of 1..3 from a random start. Shapes 1..4: random ids,
    // with 0 (shape 2), UINT32_MAX (shape 3) or both (shape 4) pinned in.
    for (int shape = 0; shape < 5; ++shape) {
      std::vector<NodeId> row;
      if (shape == 0) {
        auto x = static_cast<NodeId>(rng.UniformInt(1000));
        for (size_t i = 0; i < len; ++i) {
          row.push_back(x);
          x += static_cast<NodeId>(1 + rng.UniformInt(3));
        }
      } else {
        std::set<NodeId> ids;
        if ((shape == 2 || shape == 4) && ids.size() < len) ids.insert(0);
        if ((shape == 3 || shape == 4) && ids.size() < len)
          ids.insert(UINT32_MAX);
        while (ids.size() < len) ids.insert(static_cast<NodeId>(rng.Next()));
        row.assign(ids.begin(), ids.end());
      }
      std::vector<NodeId> probes = {0, UINT32_MAX};
      for (NodeId x : row) {
        probes.push_back(x - 1);
        probes.push_back(x);
        probes.push_back(x + 1);
      }
      for (NodeId v : probes) {
        ASSERT_EQ(SortedContains(row, v),
                  std::binary_search(row.begin(), row.end(), v))
            << "len " << len << " shape " << shape << " v " << v;
      }
    }
  }
}

TEST(MembershipAcceleratorTest, SmallGraphsHaveNoBitsets) {
  // Below the degree threshold (max(64, n/64)) every row stays on the
  // binary-search path.
  Graph g = KarateClub();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_FALSE(g.HasMembershipBitset(v)) << v;
  }
}

TEST(MembershipAcceleratorTest, StarHubGetsABitset) {
  // A 200-node star: the hub (degree 199 >= 64) is accelerated, the leaves
  // (degree 1) are not.
  std::vector<Edge> edges;
  for (NodeId v = 1; v < 200; ++v) edges.push_back({0, v});
  Graph g = Graph::FromEdges(200, std::move(edges));
  EXPECT_TRUE(g.HasMembershipBitset(0));
  for (NodeId v = 1; v < 200; ++v) EXPECT_FALSE(g.HasMembershipBitset(v));
  // Queries through either endpoint order agree with the structure.
  for (NodeId v = 1; v < 200; ++v) {
    EXPECT_TRUE(g.HasEdge(0, v)) << v;
    EXPECT_TRUE(g.HasEdge(v, 0)) << v;
  }
  EXPECT_FALSE(g.HasEdge(0, 0));
  EXPECT_FALSE(g.HasEdge(3, 5));  // leaf-leaf: binary-search path
}

TEST(MembershipAcceleratorTest, AgreesWithEdgeListEverywhere) {
  // Dense-ish BA graph with hub degrees straddling the threshold: every
  // pair's HasEdge must agree with a brute-force edge-set lookup, in both
  // argument orders.
  Graph g = BarabasiAlbert(300, 6, 42);
  std::set<std::pair<NodeId, NodeId>> edge_set;
  for (const Edge& e : g.Edges()) edge_set.insert({e.u, e.v});
  const auto brute = [&](NodeId u, NodeId v) {
    if (u == v) return false;
    return edge_set.count({std::min(u, v), std::max(u, v)}) > 0;
  };
  // Algorithm 1's oracle searches the first argument's row (or its bitset)
  // instead of the smaller row; it must give the same answers.
  const GraphAdjacencyOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(g.HasEdge(u, v), brute(u, v)) << u << "," << v;
      ASSERT_EQ(oracle.HasEdge(u, v), brute(u, v)) << u << "," << v;
    }
  }
}

TEST(MembershipAcceleratorTest, CompleteGraphAllRowsAccelerated) {
  Graph g = CompleteGraph(80);  // every degree 79 >= 64
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_TRUE(g.HasMembershipBitset(v)) << v;
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(g.HasEdge(u, v), u != v);
    }
  }
}

}  // namespace
}  // namespace sepriv
