#include "embedding/subgraph_sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/batch_gradient_engine.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace sepriv {
namespace {

TEST(SubgraphSamplerTest, OneSubgraphPerEdge) {
  Graph g = KarateClub();
  SubgraphSampler sampler(g, 5, 1);
  EXPECT_EQ(sampler.size(), g.num_edges());
}

TEST(SubgraphSamplerTest, EdgeIndexAlignedWithEdgeList) {
  Graph g = KarateClub();
  SubgraphSampler sampler(g, 3, 2, EdgeOrientation::kCanonical);
  for (size_t e = 0; e < sampler.size(); ++e) {
    const SubgraphTable::Row s = sampler.All()[e];
    const Edge& edge = g.Edges()[e];
    EXPECT_EQ(s.center, edge.u);   // canonical: min endpoint is the center
    EXPECT_EQ(s.context, edge.v);
  }
}

TEST(SubgraphSamplerTest, RandomOrientationCoversBothDirections) {
  Graph g = ErdosRenyiGnm(100, 400, 3);
  SubgraphSampler sampler(g, 1, 4, EdgeOrientation::kRandom);
  size_t canonical = 0;
  for (size_t i = 0; i < sampler.size(); ++i) {
    const SubgraphTable::Row s = sampler.All()[i];
    const Edge& e = g.Edges()[i];
    ASSERT_TRUE((s.center == e.u && s.context == e.v) ||
                (s.center == e.v && s.context == e.u));
    canonical += (s.center == e.u);
  }
  // Roughly half the edges should keep the canonical orientation.
  EXPECT_GT(canonical, sampler.size() / 3);
  EXPECT_LT(canonical, sampler.size() * 2 / 3);
}

TEST(SubgraphSamplerTest, NegativesAreNonAdjacentToCenter) {
  Graph g = KarateClub();
  SubgraphSampler sampler(g, 5, 5);
  for (size_t e = 0; e < sampler.size(); ++e) {
    const SubgraphTable::Row s = sampler.All()[e];
    ASSERT_EQ(s.negatives.size(), 5u);
    for (NodeId n : s.negatives) {
      EXPECT_NE(n, s.center);
      EXPECT_FALSE(g.HasEdge(s.center, n))
          << "negative " << n << " adjacent to center " << s.center;
    }
  }
}

TEST(SubgraphSamplerTest, ZeroNegativesSupported) {
  Graph g = PathGraph(10);
  SubgraphSampler sampler(g, 0, 6);
  for (size_t e = 0; e < sampler.size(); ++e) {
    EXPECT_TRUE(sampler.All()[e].negatives.empty());
  }
}

TEST(SubgraphSamplerTest, DeterministicPerSeed) {
  Graph g = KarateClub();
  SubgraphSampler a(g, 4, 77), b(g, 4, 77);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.All()[i].center, b.All()[i].center);
    EXPECT_TRUE(
        std::ranges::equal(a.All()[i].negatives, b.All()[i].negatives));
  }
}

TEST(SubgraphSamplerTest, BatchWithoutReplacement) {
  Graph g = KarateClub();
  SubgraphSampler sampler(g, 2, 8);
  Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    const auto batch = sampler.SampleBatch(30, rng);
    ASSERT_EQ(batch.size(), 30u);
    std::set<uint32_t> unique(batch.begin(), batch.end());
    EXPECT_EQ(unique.size(), batch.size());
    for (uint32_t idx : batch) EXPECT_LT(idx, sampler.size());
  }
}

TEST(SubgraphSamplerTest, BatchLargerThanPopulationClamped) {
  Graph g = PathGraph(5);  // 4 edges
  SubgraphSampler sampler(g, 1, 10);
  Rng rng(1);
  const auto batch = sampler.SampleBatch(100, rng);
  EXPECT_EQ(batch.size(), 4u);
  std::set<uint32_t> unique(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), 4u);
}

TEST(SubgraphSamplerTest, BatchSamplingApproximatelyUniform) {
  Graph g = CycleGraph(40);  // 40 edges
  SubgraphSampler sampler(g, 1, 13);
  Rng rng(13);
  std::vector<int> hits(40, 0);
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    for (uint32_t idx : sampler.SampleBatch(4, rng)) ++hits[idx];
  }
  // Each index expected trials·4/40 = 400 times.
  for (int h : hits) EXPECT_NEAR(h, 400, 100);
}

TEST(SubgraphSamplerTest, DenseGraphFallbackTerminates) {
  // Nearly complete graph: few valid negatives exist; construction must not
  // hang and negatives must differ from the center.
  Graph g = CompleteGraph(6);
  SubgraphSampler sampler(g, 3, 21);
  for (size_t e = 0; e < sampler.size(); ++e) {
    const SubgraphTable::Row s = sampler.All()[e];
    for (NodeId n : s.negatives) EXPECT_NE(n, s.center);
  }
}

TEST(SubgraphSamplerTest, CompleteGraphFallbackFillsAllNegatives) {
  // On a complete graph every non-center node is adjacent, so the bounded
  // rejection loop exhausts its 256 tries and the `found == false` fallback
  // must supply every negative: full count, valid ids, never the center.
  Graph g = CompleteGraph(8);
  SubgraphSampler sampler(g, 4, 33, EdgeOrientation::kCanonical,
                          /*exclude_neighbors=*/true);
  for (size_t e = 0; e < sampler.size(); ++e) {
    const SubgraphTable::Row s = sampler.All()[e];
    ASSERT_EQ(s.negatives.size(), 4u);
    for (NodeId n : s.negatives) {
      EXPECT_NE(n, s.center);
      EXPECT_LT(n, g.num_nodes());
      // Proof the fallback (not a lucky rejection draw) produced it: on K_8
      // every non-center node is a neighbour.
      EXPECT_TRUE(g.HasEdge(s.center, n));
    }
  }
}

TEST(SubgraphSamplerTest, TwoNodeGraphFallbackAvoidsCenter) {
  // Smallest legal graph: the fallback's modular step lands on the single
  // non-center node, and the post-adjustment can never return the center.
  Graph g = Graph::FromEdges(2, {{0, 1}});
  SubgraphSampler sampler(g, 3, 7, EdgeOrientation::kCanonical,
                          /*exclude_neighbors=*/true);
  ASSERT_EQ(sampler.size(), 1u);
  const SubgraphTable::Row s = sampler.All()[0];
  ASSERT_EQ(s.negatives.size(), 3u);
  for (NodeId n : s.negatives) {
    EXPECT_NE(n, s.center);
    EXPECT_EQ(n, s.context);  // only one other node exists
  }
}

TEST(SubgraphSamplerTest, FallbackScanFindsValidNegativeOnNearCompleteGraph) {
  // K_100 minus the single edge (0, 1): for centers 0 and 1 exactly one
  // valid negative exists (the other node), so a uniform rejection try
  // succeeds with probability 1/100 and the 256-try budget is exhausted
  // about 8% of the time. Across the ~200 negative draws centered at 0 or 1
  // that makes at least one fallback essentially certain — and the fallback
  // used to return an arbitrary non-center node, i.e. a NEIGHBOR, violating
  // exclude_neighbors. The fixed fallback scans for a valid non-neighbor
  // first, so every negative must be the unique valid one.
  const size_t n = 100;
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v)
      if (!(u == 0 && v == 1)) edges.push_back({u, v});
  Graph g = Graph::FromEdges(n, std::move(edges));
  SubgraphSampler sampler(g, 2, 19, EdgeOrientation::kCanonical,
                          /*exclude_neighbors=*/true);
  size_t checked = 0;
  for (size_t e = 0; e < sampler.size(); ++e) {
    const SubgraphTable::Row s = sampler.All()[e];
    if (s.center != 0 && s.center != 1) continue;
    const NodeId only_valid = (s.center == 0) ? 1 : 0;
    for (NodeId neg : s.negatives) {
      EXPECT_EQ(neg, only_valid)
          << "center " << s.center << " got adjacent negative " << neg;
      ++checked;
    }
  }
  EXPECT_GE(checked, 190u);  // centers 0/1 carry ~99 edges x 2 negatives
}

TEST(SubgraphSamplerTest, BatchMatchesReferenceFloydForFixedSeed) {
  // SampleBatch replaced an O(m²) std::find membership probe with a hash
  // set; the sequence of picks must be unchanged. Reference: the original
  // Floyd loop with linear membership scans.
  Graph g = ErdosRenyiGnm(300, 900, 5);
  SubgraphSampler sampler(g, 1, 5);
  for (uint64_t seed : {1ULL, 42ULL, 99ULL}) {
    for (size_t batch_size : {1UL, 7UL, 128UL, 900UL}) {
      Rng rng_new(seed), rng_ref(seed);
      const auto batch = sampler.SampleBatch(batch_size, rng_new);

      const size_t n = sampler.size();
      const size_t m = std::min(batch_size, n);
      std::vector<uint32_t> reference;
      reference.reserve(m);
      for (size_t j = n - m; j < n; ++j) {
        const auto t = static_cast<uint32_t>(rng_ref.UniformInt(j + 1));
        if (std::find(reference.begin(), reference.end(), t) ==
            reference.end()) {
          reference.push_back(t);
        } else {
          reference.push_back(static_cast<uint32_t>(j));
        }
      }
      EXPECT_EQ(batch, reference) << "seed " << seed << " m " << batch_size;
    }
  }
}

TEST(SubgraphSamplerTest, NearCompleteGraphFindsTheOnlyValidNegative) {
  // K_8 minus the single edge (0, 1): for subgraphs centered at 0 the sole
  // non-adjacent candidate is node 1, and vice versa. Under the canonical
  // orientation both 0 and 1 occur as centers (each is the min endpoint of
  // its remaining edges), so both directions are exercised, and rejection
  // sampling must find the unique valid negative rather than dropping into
  // the fallback.
  std::vector<Edge> edges;
  for (NodeId u = 0; u < 8; ++u)
    for (NodeId v = u + 1; v < 8; ++v)
      if (!(u == 0 && v == 1)) edges.push_back({u, v});
  Graph g = Graph::FromEdges(8, std::move(edges));
  SubgraphSampler sampler(g, 2, 11, EdgeOrientation::kCanonical,
                          /*exclude_neighbors=*/true);
  bool saw_center0 = false, saw_center1 = false;
  for (size_t e = 0; e < sampler.size(); ++e) {
    const SubgraphTable::Row s = sampler.All()[e];
    if (s.center != 0 && s.center != 1) continue;
    saw_center0 |= (s.center == 0);
    saw_center1 |= (s.center == 1);
    const NodeId only_valid = (s.center == 0) ? 1 : 0;
    for (NodeId n : s.negatives) EXPECT_EQ(n, only_valid);
  }
  EXPECT_TRUE(saw_center0);
  EXPECT_TRUE(saw_center1);
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

/// Graph adjacency that counts the generator's probes.
class CountingOracle final : public AdjacencyOracle {
 public:
  explicit CountingOracle(const Graph& graph) : graph_(graph) {}
  size_t num_nodes() const override { return graph_.num_nodes(); }
  bool HasEdge(NodeId u, NodeId v) const override {
    ++probes;
    return graph_.HasEdge(u, v);
  }
  mutable size_t probes = 0;

 private:
  const Graph& graph_;
};

/// Checks every row of the sampler's table against SubgraphGenerator::Next
/// on the same stream, and InMemorySampleSource::Get against the row.
/// Returns the most adjacency probes one edge took.
size_t ExpectTableMatchesGenerator(const Graph& g, int k, uint64_t seed,
                                   EdgeOrientation orientation,
                                   bool exclude_neighbors) {
  const SubgraphSampler sampler(g, k, seed, orientation, exclude_neighbors);
  const SubgraphTable& table = sampler.All();
  EXPECT_EQ(table.size(), g.num_edges());
  EXPECT_EQ(table.negatives_per_row(), static_cast<size_t>(k));
  std::vector<double> weights(g.num_edges());
  for (size_t e = 0; e < weights.size(); ++e) weights[e] = 0.5 + 0.25 * e;
  const InMemorySampleSource source(table, weights);

  CountingOracle oracle(g);
  SubgraphGenerator gen(oracle, k, seed, orientation, exclude_neighbors);
  Subgraph want;
  size_t max_probes = 0;
  for (size_t e = 0; e < g.num_edges(); ++e) {
    oracle.probes = 0;
    gen.Next(g.Edges()[e].u, g.Edges()[e].v, static_cast<uint32_t>(e), want);
    max_probes = std::max(max_probes, oracle.probes);
    const SubgraphTable::Row row = table[e];
    EXPECT_EQ(row.center, want.center) << "edge " << e;
    EXPECT_EQ(row.context, want.context) << "edge " << e;
    EXPECT_TRUE(std::ranges::equal(row.negatives, want.negatives))
        << "edge " << e;
    const SampleView v = source.Get(static_cast<uint32_t>(e));
    EXPECT_EQ(v.center, row.center);
    EXPECT_EQ(v.context, row.context);
    EXPECT_EQ(v.weight, weights[e]);
    EXPECT_EQ(v.negatives.data(), row.negatives.data()) << "edge " << e;
    EXPECT_EQ(v.negatives.size(), row.negatives.size());
  }
  return max_probes;
}

/// K_n minus the perfect matching {(0,1), (2,3), ...}: every center has
/// exactly one valid negative.
Graph CompleteMinusMatching(size_t n) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v)
      if (!(u % 2 == 0 && v == u + 1)) edges.push_back({u, v});
  return Graph::FromEdges(n, std::move(edges));
}

// K_100 minus a perfect matching: rejection fails its 256 tries ~8% of the
// time and the reservoir scan runs. With k = 1 an edge that probes more than
// 256 times took the scan.
TEST(SubgraphTableTest, RowsMatchGeneratorThroughReservoirFallback) {
  const Graph g = CompleteMinusMatching(100);
  const size_t max_probes = ExpectTableMatchesGenerator(
      g, 1, 29, EdgeOrientation::kRandom, /*exclude_neighbors=*/true);
  EXPECT_GT(max_probes, 256u);
}

TEST(SubgraphTableTest, RowsMatchGeneratorWithoutNeighborExclusion) {
  const Graph g = BarabasiAlbert(300, 4, /*seed=*/8);
  const size_t max_probes = ExpectTableMatchesGenerator(
      g, 5, 31, EdgeOrientation::kRandom, /*exclude_neighbors=*/false);
  EXPECT_EQ(max_probes, 0u);  // no adjacency test, so no probe
}

/// HashMix over every cell of the table, row by row: center, context, then
/// the negatives.
uint64_t TableDigest(const SubgraphTable& table) {
  uint64_t h = 0;
  for (size_t e = 0; e < table.size(); ++e) {
    const SubgraphTable::Row row = table[e];
    h = HashMix(HashMix(h, row.center), row.context);
    for (NodeId n : row.negatives) h = HashMix(h, n);
  }
  return h;
}

struct GsGoldenCase {
  const char* label;
  Graph (*make)();
  int negatives;
  uint64_t seed;
  bool exclude_neighbors;
  uint64_t digest;
};

// Algorithm 1's whole output on fixed graphs and seeds. The table tests
// above compare the sampler with a generator over Graph::HasEdge, so a
// search bug both share would pass them; these digests were recorded while
// every membership test was still std::binary_search over the smaller row.
const GsGoldenCase kGsGoldenCases[] = {
    {"ba(3000,5)", [] { return BarabasiAlbert(3000, 5, /*seed=*/3); }, 5, 17,
     true, 0x2f02e82ca7362ed9ULL},
    {"ba(3000,5) any negative",
     [] { return BarabasiAlbert(3000, 5, /*seed=*/3); }, 5, 17, false,
     0x1c0484f7bf487aebULL},
    {"plc(3000,5,0.3)",
     [] { return PowerLawCluster(3000, 5, 0.3, /*seed=*/4); }, 5, 19, true,
     0xffe92ff15adbeb37ULL},
    {"plc(3000,5,0.3) any negative",
     [] { return PowerLawCluster(3000, 5, 0.3, /*seed=*/4); }, 5, 19, false,
     0x364e853111683291ULL},
    {"k100 minus matching", [] { return CompleteMinusMatching(100); }, 1, 29,
     true, 0xfa798f47a63d9fc4ULL},
    {"ba(300,6) hubs", [] { return BarabasiAlbert(300, 6, /*seed=*/42); }, 5,
     23, true, 0x8061f078c3538931ULL},
};

TEST(SubgraphTableTest, GsDigestsArePinned) {
  size_t bitset_centers = 0;
  for (const GsGoldenCase& c : kGsGoldenCases) {
    const Graph g = c.make();
    const SubgraphSampler sampler(g, c.negatives, c.seed,
                                  EdgeOrientation::kRandom,
                                  c.exclude_neighbors);
    const uint64_t digest = TableDigest(sampler.All());
    EXPECT_EQ(digest, c.digest)
        << c.label << ": got 0x" << std::hex << digest << "ULL";
    for (size_t e = 0; e < sampler.size(); ++e)
      bitset_centers += g.HasMembershipBitset(sampler.All()[e].center);
  }
  // Some center owns a bitset, so the oracle's bitset answer ran too.
  EXPECT_GT(bitset_centers, 0u);
}

}  // namespace
}  // namespace sepriv
