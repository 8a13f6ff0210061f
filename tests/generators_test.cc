#include "graph/generators.h"

#include <gtest/gtest.h>

#include <cmath>

namespace sepriv {
namespace {

/// Global clustering coefficient (3×triangles / wedges); used to verify the
/// Holme–Kim triad closure actually increases clustering.
double GlobalClustering(const Graph& g) {
  size_t wedges = 0, closed = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.Neighbors(v);
    for (size_t a = 0; a < nbrs.size(); ++a) {
      for (size_t b = a + 1; b < nbrs.size(); ++b) {
        ++wedges;
        if (g.HasEdge(nbrs[a], nbrs[b])) ++closed;
      }
    }
  }
  return wedges == 0 ? 0.0 : static_cast<double>(closed) /
                                 static_cast<double>(wedges);
}

TEST(GeneratorsTest, GnmExactEdgeCount) {
  Graph g = ErdosRenyiGnm(100, 250, 1);
  EXPECT_EQ(g.num_nodes(), 100u);
  EXPECT_EQ(g.num_edges(), 250u);
}

TEST(GeneratorsTest, GnmDeterministicPerSeed) {
  Graph a = ErdosRenyiGnm(50, 100, 7);
  Graph b = ErdosRenyiGnm(50, 100, 7);
  EXPECT_EQ(a.Edges().size(), b.Edges().size());
  for (size_t i = 0; i < a.Edges().size(); ++i) {
    EXPECT_EQ(a.Edges()[i], b.Edges()[i]);
  }
}

TEST(GeneratorsTest, GnmDifferentSeedsDiffer) {
  Graph a = ErdosRenyiGnm(50, 100, 1);
  Graph b = ErdosRenyiGnm(50, 100, 2);
  size_t same = 0;
  for (const Edge& e : a.Edges()) same += b.HasEdge(e.u, e.v);
  EXPECT_LT(same, 40u);  // overlap should be near 100·(100/1225) ≈ 8
}

TEST(GeneratorsTest, GnpEdgeCountNearExpectation) {
  const size_t n = 200;
  const double p = 0.05;
  Graph g = ErdosRenyiGnp(n, p, 3);
  const double expect = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expect, 4.0 * std::sqrt(expect));
}

TEST(GeneratorsTest, GnpZeroAndOne) {
  EXPECT_EQ(ErdosRenyiGnp(20, 0.0, 1).num_edges(), 0u);
  EXPECT_EQ(ErdosRenyiGnp(20, 1.0, 1).num_edges(), 190u);
}

TEST(GeneratorsTest, BarabasiAlbertSizes) {
  Graph g = BarabasiAlbert(500, 3, 5);
  EXPECT_EQ(g.num_nodes(), 500u);
  // Seed clique C(4,2)=6 + (500-4)*3 edges, minus rare rejection shortfalls.
  EXPECT_GE(g.num_edges(), 1480u);
  EXPECT_LE(g.num_edges(), 6u + 496u * 3u);
}

TEST(GeneratorsTest, BarabasiAlbertMinDegree) {
  Graph g = BarabasiAlbert(300, 4, 9);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GE(g.Degree(v), 4u) << "node " << v;
  }
}

TEST(GeneratorsTest, BarabasiAlbertHeavyTail) {
  Graph g = BarabasiAlbert(2000, 2, 11);
  // Preferential attachment produces hubs far above the mean degree (4).
  EXPECT_GE(g.MaxDegree(), 40u);
}

TEST(GeneratorsTest, PowerLawClusterRaisesClustering) {
  Graph ba = BarabasiAlbert(800, 4, 13);
  Graph plc = PowerLawCluster(800, 4, 0.9, 13);
  EXPECT_GT(GlobalClustering(plc), GlobalClustering(ba) * 1.5);
}

TEST(GeneratorsTest, WattsStrogatzRingPlusChords) {
  Graph g = WattsStrogatz(300, 1, 0.0, 50, 17);
  EXPECT_EQ(g.num_nodes(), 300u);
  EXPECT_EQ(g.num_edges(), 350u);  // ring (300) + 50 chords
}

TEST(GeneratorsTest, WattsStrogatzNoRewireIsRing) {
  Graph g = WattsStrogatz(50, 2, 0.0, 0, 19);
  for (NodeId v = 0; v < 50; ++v) EXPECT_EQ(g.Degree(v), 4u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(0, 2));
}

TEST(GeneratorsTest, WattsStrogatzRewiringKeepsEdgeBudget) {
  Graph g = WattsStrogatz(400, 2, 0.3, 0, 23);
  // Rewiring can lose a few edges to collisions but not many.
  EXPECT_GE(g.num_edges(), 780u);
  EXPECT_LE(g.num_edges(), 800u);
}

TEST(GeneratorsTest, SbmBlockStructure) {
  const size_t n = 400, blocks = 4;
  Graph g = StochasticBlockModel(n, blocks, 0.2, 0.005, 29);
  const size_t bs = n / blocks;
  size_t within = 0, cross = 0;
  for (const Edge& e : g.Edges()) {
    if (e.u / bs == e.v / bs) {
      ++within;
    } else {
      ++cross;
    }
  }
  EXPECT_GT(within, cross * 3);
}

TEST(GeneratorsTest, SbmZeroCrossProbability) {
  Graph g = StochasticBlockModel(200, 2, 0.3, 0.0, 31);
  const size_t bs = 100;
  for (const Edge& e : g.Edges()) EXPECT_EQ(e.u / bs, e.v / bs);
}

struct GenSizeCase {
  const char* name;
  size_t n;
};

// Without this, GoogleTest prints the param as raw bytes, which include the
// address of `name`; CTest discovery copies that dump into the test name, so
// the name changed with every build layout and address-space randomization.
void PrintTo(const GenSizeCase& c, std::ostream* os) { *os << c.name; }

class GeneratorScaleTest : public ::testing::TestWithParam<GenSizeCase> {};

TEST_P(GeneratorScaleTest, AllGeneratorsProduceSimpleGraphs) {
  const size_t n = GetParam().n;
  const Graph graphs[] = {
      ErdosRenyiGnm(n, 2 * n, 1), BarabasiAlbert(n, 3, 2),
      PowerLawCluster(n, 3, 0.5, 3), WattsStrogatz(n, 2, 0.1, n / 10, 4),
      StochasticBlockModel(n, 5, 0.1, 0.01, 5)};
  for (const Graph& g : graphs) {
    EXPECT_EQ(g.num_nodes(), n);
    EXPECT_FALSE(g.HasEdge(0, 0));  // no self-loops by construction
    // CSR invariant: adjacency is symmetric.
    for (size_t e = 0; e < std::min<size_t>(g.num_edges(), 100); ++e) {
      const Edge& ed = g.Edges()[e];
      EXPECT_TRUE(g.HasEdge(ed.v, ed.u));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeneratorScaleTest,
                         ::testing::Values(GenSizeCase{"n100", 100},
                                           GenSizeCase{"n500", 500},
                                           GenSizeCase{"n1000", 1000}),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace sepriv
