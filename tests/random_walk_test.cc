#include "embedding/random_walk.h"

#include <gtest/gtest.h>

#include "embedding/negative_sampler.h"
#include "embedding/subgraph_sampler.h"
#include "graph/generators.h"

namespace sepriv {
namespace {

TEST(RandomWalkTest, WalkStepsFollowEdges) {
  Graph g = KarateClub();
  RandomWalkEngine engine(g);
  Rng rng(1);
  const auto walk = engine.Walk(0, 20, rng);
  ASSERT_GE(walk.size(), 2u);
  EXPECT_EQ(walk[0], 0u);
  for (size_t i = 0; i + 1 < walk.size(); ++i) {
    EXPECT_TRUE(g.HasEdge(walk[i], walk[i + 1]));
  }
}

TEST(RandomWalkTest, WalkLengthIsStepsPlusStart) {
  Graph g = CompleteGraph(10);
  RandomWalkEngine engine(g);
  Rng rng(2);
  EXPECT_EQ(engine.Walk(3, 15, rng).size(), 16u);
}

TEST(RandomWalkTest, DanglingNodeStopsWalk) {
  Graph g = Graph::FromEdges(3, {{0, 1}});  // node 2 isolated
  RandomWalkEngine engine(g);
  Rng rng(3);
  const auto walk = engine.Walk(2, 10, rng);
  EXPECT_EQ(walk.size(), 1u);
}

TEST(RandomWalkTest, DeterministicPerSeed) {
  Graph g = KarateClub();
  RandomWalkEngine engine(g);
  Rng a(7), b(7);
  EXPECT_EQ(engine.Walk(5, 30, a), engine.Walk(5, 30, b));
}

TEST(RandomWalkTest, BiasedWalkUnitParamsValid) {
  Graph g = KarateClub();
  RandomWalkEngine engine(g);
  Rng rng(4);
  const auto walk = engine.BiasedWalk(0, 25, 1.0, 1.0, rng);
  for (size_t i = 0; i + 1 < walk.size(); ++i) {
    EXPECT_TRUE(g.HasEdge(walk[i], walk[i + 1]));
  }
}

TEST(RandomWalkTest, HighReturnParameterDiscouragesBacktracking) {
  Graph g = CycleGraph(50);
  RandomWalkEngine engine(g);
  Rng rng(5);
  size_t backtracks_low_p = 0, backtracks_high_p = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto w1 = engine.BiasedWalk(0, 20, 0.05, 1.0, rng);  // return-happy
    for (size_t i = 2; i < w1.size(); ++i)
      backtracks_low_p += (w1[i] == w1[i - 2]);
    const auto w2 = engine.BiasedWalk(0, 20, 20.0, 1.0, rng);  // exploring
    for (size_t i = 2; i < w2.size(); ++i)
      backtracks_high_p += (w2[i] == w2[i - 2]);
  }
  EXPECT_GT(backtracks_low_p, backtracks_high_p * 2);
}

TEST(RandomWalkTest, CorpusShapeAndCoverage) {
  Graph g = KarateClub();
  RandomWalkEngine engine(g);
  Rng rng(6);
  const auto corpus = engine.Corpus(3, 10, rng);
  EXPECT_EQ(corpus.size(), 3u * g.num_nodes());
  // Every node starts at least one walk (start nodes are shuffled but all
  // present).
  std::vector<int> starts(g.num_nodes(), 0);
  for (const auto& walk : corpus) ++starts[walk[0]];
  for (int s : starts) EXPECT_EQ(s, 3);
}

// Algorithm 1's negative draw: SubgraphGenerator over a resident graph,
// with the canonical orientation so the first endpoint is the center.
TEST(NegativeSamplerTest, UniformNonNeighborExcludesNeighbors) {
  Graph g = StarGraph(20);
  GraphAdjacencyOracle oracle(g);
  SubgraphGenerator gen(oracle, /*negatives_per_edge=*/1, /*seed=*/7,
                        EdgeOrientation::kCanonical);
  Subgraph s;
  // Center 0 is adjacent to everyone: the fallback must still return != 0.
  for (int i = 0; i < 50; ++i) {
    gen.Next(0, 1, /*edge_index=*/0, s);
    EXPECT_NE(s.negatives[0], 0u);
  }
  // A leaf's negatives are never the center.
  for (int i = 0; i < 200; ++i) {
    gen.Next(1, 0, /*edge_index=*/0, s);
    EXPECT_NE(s.negatives[0], 1u);
    EXPECT_NE(s.negatives[0], 0u);
  }
}

TEST(NegativeSamplerTest, DenseGraphFallbackNeverReturnsNeighbor) {
  // Near-complete graph: node 0 is adjacent to every node except node 1, so
  // rejection sampling almost always exhausts its 256 tries. The old
  // fallback returned (center + 1) % n — a NEIGHBOR of 0 — violating the
  // non-neighbor negative design; the scan-before-relax fallback must find
  // the single valid candidate every time.
  std::vector<Edge> edges;
  const NodeId n = 40;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (u == 0 && v == 1) continue;
      edges.push_back({u, v});
    }
  }
  Graph g = Graph::FromEdges(n, std::move(edges));
  GraphAdjacencyOracle oracle(g);
  SubgraphGenerator gen(oracle, /*negatives_per_edge=*/1, /*seed=*/11,
                        EdgeOrientation::kCanonical);
  Subgraph s;
  for (int i = 0; i < 300; ++i) {
    gen.Next(0, 2, /*edge_index=*/0, s);
    const NodeId neg = s.negatives[0];
    EXPECT_NE(neg, 0u);
    EXPECT_FALSE(g.HasEdge(0, neg)) << "sampled neighbor " << neg;
    EXPECT_EQ(neg, 1u);  // the only non-neighbor of 0
  }
  // Fully saturated center (complete graph): must still terminate and
  // return != center even though no valid non-neighbor exists.
  Graph complete = CompleteGraph(12);
  GraphAdjacencyOracle complete_oracle(complete);
  SubgraphGenerator complete_gen(complete_oracle, /*negatives_per_edge=*/1,
                                 /*seed=*/11, EdgeOrientation::kCanonical);
  for (int i = 0; i < 100; ++i) {
    complete_gen.Next(3, 4, /*edge_index=*/0, s);
    EXPECT_NE(s.negatives[0], 3u);
  }
}

TEST(NegativeSamplerTest, DegreeSamplerMatchesDegreeDistribution) {
  Graph g = StarGraph(11);  // center degree 10, leaves degree 1
  DegreeNegativeSampler sampler(g, 1.0);
  Rng rng(8);
  int center_hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) center_hits += (sampler.Sample(rng) == 0u);
  // Center holds 10 of 20 total degree mass.
  EXPECT_NEAR(static_cast<double>(center_hits) / n, 0.5, 0.02);
}

TEST(NegativeSamplerTest, DegreePowerDampensHubs) {
  Graph g = StarGraph(11);
  DegreeNegativeSampler damped(g, 0.5);
  Rng rng(9);
  int center_hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) center_hits += (damped.Sample(rng) == 0u);
  // sqrt(10) / (sqrt(10) + 10·1) ≈ 0.24.
  EXPECT_NEAR(static_cast<double>(center_hits) / n, 0.24, 0.03);
}

}  // namespace
}  // namespace sepriv
