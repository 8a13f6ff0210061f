#include "proximity/walk_proximity.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "util/digest.h"

namespace sepriv {
namespace {

TEST(DeepWalkProximityTest, OneStepRowIsNormalizedAdjacency) {
  Graph g = PathGraph(4);  // 0-1-2-3
  DeepWalkProximity p(g, /*window=*/1);
  // Row of node 1: uniform over neighbours {0, 2}.
  EXPECT_NEAR(p.At(1, 0), 0.5, 1e-12);
  EXPECT_NEAR(p.At(1, 2), 0.5, 1e-12);
  EXPECT_NEAR(p.At(1, 3), 0.0, 1e-12);
  // Endpoint: all mass to the single neighbour.
  EXPECT_NEAR(p.At(0, 1), 1.0, 1e-12);
}

TEST(DeepWalkProximityTest, RowSumsToOne) {
  Graph g = KarateClub();
  for (int window : {1, 2, 4}) {
    DeepWalkProximity p(g, window);
    for (NodeId i : {NodeId(0), NodeId(5), NodeId(33)}) {
      double sum = 0.0;
      for (NodeId j = 0; j < g.num_nodes(); ++j) sum += p.At(i, j);
      EXPECT_NEAR(sum, 1.0, 1e-9) << "window=" << window << " node " << i;
    }
  }
}

TEST(DeepWalkProximityTest, PositiveOnEveryEdge) {
  Graph g = KarateClub();
  DeepWalkProximity p(g, 2);
  for (const Edge& e : g.Edges()) {
    EXPECT_GT(p.At(e.u, e.v), 0.0);
    EXPECT_GT(p.At(e.v, e.u), 0.0);
  }
}

TEST(DeepWalkProximityTest, TwoStepHandComputed) {
  Graph g = PathGraph(3);  // 0-1-2
  DeepWalkProximity p(g, 2);
  // W = rows: 0->{1:1}, 1->{0:.5,2:.5}, 2->{1:1}
  // W² row 0: {0:.5, 2:.5}. M = (W + W²)/2.
  EXPECT_NEAR(p.At(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(p.At(0, 0), 0.25, 1e-12);
  EXPECT_NEAR(p.At(0, 2), 0.25, 1e-12);
}

TEST(DeepWalkProximityTest, CachedRowConsistentAcrossQueries) {
  Graph g = CycleGraph(10);
  DeepWalkProximity p(g, 3);
  const double first = p.At(2, 5);
  p.At(7, 1);  // evict
  EXPECT_DOUBLE_EQ(p.At(2, 5), first);
}

TEST(SampledDeepWalkTest, ApproximatesExactOnEdges) {
  Graph g = KarateClub();
  DeepWalkProximity exact(g, 2);
  SampledDeepWalkProximity sampled(g, 2, /*walks=*/4000, /*seed=*/11);
  double max_err = 0.0;
  for (size_t e = 0; e < 20; ++e) {
    const Edge& ed = g.Edges()[e];
    max_err = std::max(max_err, std::abs(exact.At(ed.u, ed.v) -
                                         sampled.At(ed.u, ed.v)));
  }
  EXPECT_LT(max_err, 0.03);
}

TEST(SampledDeepWalkTest, DeterministicPerSeed) {
  Graph g = KarateClub();
  SampledDeepWalkProximity a(g, 2, 100, 5), b(g, 2, 100, 5);
  EXPECT_DOUBLE_EQ(a.At(0, 1), b.At(0, 1));
  EXPECT_DOUBLE_EQ(a.At(33, 32), b.At(33, 32));
}

TEST(SampledDeepWalkTest, RowMassAtMostOne) {
  Graph g = KarateClub();
  SampledDeepWalkProximity p(g, 3, 500, 7);
  double sum = 0.0;
  for (NodeId j = 0; j < g.num_nodes(); ++j) sum += p.At(0, j);
  EXPECT_NEAR(sum, 1.0, 1e-9);  // every step lands somewhere
}

TEST(KatzProximityTest, SinglePathCounts) {
  Graph g = PathGraph(3);  // 0-1-2
  KatzProximity p(g, /*max_length=*/2, /*beta=*/0.1);
  // Paths 0->1: one of length 1 -> 0.1; plus none of length 2.
  EXPECT_NEAR(p.At(0, 1), 0.1, 1e-12);
  // 0->2: one walk of length 2 -> 0.01.
  EXPECT_NEAR(p.At(0, 2), 0.01, 1e-12);
  // 0->0: walk 0-1-0 -> 0.01.
  EXPECT_NEAR(p.At(0, 0), 0.01, 1e-12);
}

TEST(KatzProximityTest, TriangleWalkCounts) {
  Graph g = CycleGraph(3);
  KatzProximity p(g, 3, 0.5);
  // A^1_01=1, A^2_01=1 (0-2-1), A^3_01=2 (0-1-0-1? no: walks of length 3
  // from 0 to 1 in K3/triangle: 0-1-0-1, 0-1-2-1? wait those revisit; walks
  // allow revisits: 0-1-0-1, 0-2-0-1, 0-2-1... count = A³ = 2·A + A? For C3,
  // A³_01 = 3? Compute directly: A²=2I+A (for triangle), so A³=2A+A²=2A+2I+A
  // = 3A+2I -> A³_01 = 3.
  EXPECT_NEAR(p.At(0, 1), 0.5 * 1 + 0.25 * 1 + 0.125 * 3, 1e-12);
}

TEST(KatzProximityTest, MonotoneInPathLength) {
  Graph g = PathGraph(6);
  KatzProximity p(g, 5, 0.2);
  // Closer along the path => larger Katz score.
  EXPECT_GT(p.At(0, 1), p.At(0, 2));
  EXPECT_GT(p.At(0, 2), p.At(0, 3));
  EXPECT_GT(p.At(0, 3), p.At(0, 4));
}

TEST(KatzProximityTest, SymmetricOnUndirectedGraphs) {
  Graph g = KarateClub();
  KatzProximity p(g, 4, 0.05);
  for (NodeId i = 0; i < 8; ++i) {
    for (NodeId j = 0; j < 8; ++j) {
      EXPECT_NEAR(p.At(i, j), p.At(j, i), 1e-9);
    }
  }
}

TEST(PprProximityTest, MassConcentratesNearSource) {
  Graph g = PathGraph(7);
  PersonalizedPageRankProximity p(g, 0.2, 30);
  EXPECT_GT(p.At(0, 1), p.At(0, 3));
  EXPECT_GT(p.At(0, 3), p.At(0, 6));
}

TEST(PprProximityTest, RowSumsToAtMostOne) {
  Graph g = KarateClub();
  PersonalizedPageRankProximity p(g, 0.15, 25);
  for (NodeId i : {NodeId(0), NodeId(16), NodeId(33)}) {
    double sum = 0.0;
    for (NodeId j = 0; j < g.num_nodes(); ++j) sum += p.At(i, j);
    EXPECT_LE(sum, 1.0 + 1e-9);
    EXPECT_GT(sum, 0.9);  // most mass retained after 25 iterations
  }
}

TEST(PprProximityTest, HigherAlphaStaysCloserToSource) {
  Graph g = CycleGraph(20);
  PersonalizedPageRankProximity lo(g, 0.1, 40);
  PersonalizedPageRankProximity hi(g, 0.6, 40);
  // With a larger restart probability the walk stays near the source.
  EXPECT_GT(hi.At(0, 0), lo.At(0, 0));
  EXPECT_LT(hi.At(0, 10), lo.At(0, 10) + 1e-12);
}

TEST(WalkProximityDeathTest, BadParametersAbort) {
  Graph g = PathGraph(3);
  EXPECT_DEATH(KatzProximity(g, 0, 0.1), "max_length");
  EXPECT_DEATH(PersonalizedPageRankProximity(g, 1.5, 10), "alpha");
  EXPECT_DEATH(DeepWalkProximity(g, 0), "window");
}

TEST(WalkProximityTest, NamesEncodeParameters) {
  Graph g = PathGraph(3);
  EXPECT_EQ(KatzProximity(g, 4, 0.05).Name(), "katz(L=4,beta=0.050)");
  EXPECT_EQ(DeepWalkProximity(g, 2).Name(), "deepwalk(T=2)");
}

// The three exact row oracles at the paper's defaults (plus DeepWalk T=3),
// each paired with the FNV digest of its full EdgeProximity on the fixture
// graph below.
struct GoldenCase {
  const char* label;
  std::unique_ptr<ProximityProvider> (*make)(const Graph&);
  uint64_t digest;
};

const GoldenCase kGoldenCases[] = {
    {"katz(L=4)",
     [](const Graph& g) -> std::unique_ptr<ProximityProvider> {
       return std::make_unique<KatzProximity>(g, 4, 0.05);
     },
     0x6d7080c8b0a906ffULL},
    {"ppr(iters=20)",
     [](const Graph& g) -> std::unique_ptr<ProximityProvider> {
       return std::make_unique<PersonalizedPageRankProximity>(g, 0.15, 20);
     },
     0x39c418ed2f7ea478ULL},
    {"deepwalk(T=2)",
     [](const Graph& g) -> std::unique_ptr<ProximityProvider> {
       return std::make_unique<DeepWalkProximity>(g, 2);
     },
     0x2c04b1e5fc47ea3dULL},
    {"deepwalk(T=3)",
     [](const Graph& g) -> std::unique_ptr<ProximityProvider> {
       return std::make_unique<DeepWalkProximity>(g, 3);
     },
     0x60f7779fb4c69359ULL},
};

// The shortest walks, where the pulled last step is all of the row (DeepWalk
// T=1) or half of its steps (Katz L=2). Recorded while every step was still
// pushed into the row, so they pin the pulled step to the pushed one.
const GoldenCase kShortWalkGoldenCases[] = {
    {"deepwalk(T=1)",
     [](const Graph& g) -> std::unique_ptr<ProximityProvider> {
       return std::make_unique<DeepWalkProximity>(g, 1);
     },
     0x52c430953a794e1eULL},
    {"katz(L=2)",
     [](const Graph& g) -> std::unique_ptr<ProximityProvider> {
       return std::make_unique<KatzProximity>(g, 2, 0.05);
     },
     0xcaf70f2127a668aeULL},
};

// Hub-heavy fixture: a few hubs whose rows reach most of the graph within
// two steps, and a long tail of degree-5 leaves.
Graph HubHeavyGraph() { return PowerLawCluster(2000, 5, 0.3, /*seed=*/12); }

uint64_t EdgeProximityDigest(const EdgeProximity& ep) {
  uint64_t h = FnvDigest(ep.values.data(), ep.values.size() * sizeof(double));
  h = FnvDigest(ep.normalized.data(), ep.normalized.size() * sizeof(double),
                h);
  h = FnvDigest(&ep.min_positive, sizeof(double), h);
  h = FnvDigest(&ep.max_value, sizeof(double), h);
  return FnvDigest(&ep.normalized_min_positive, sizeof(double), h);
}

// Pins every bit of the per-edge table the trainer consumes, so any change
// to the push order or the row accumulation shows up as a digest mismatch.
TEST(WalkProximityGoldenTest, EdgeProximityDigestsArePinned) {
  const Graph g = HubHeavyGraph();
  for (const GoldenCase& c : kGoldenCases) {
    const auto provider = c.make(g);
    const uint64_t digest =
        EdgeProximityDigest(ComputeEdgeProximities(g, *provider));
    EXPECT_EQ(digest, c.digest)
        << c.label << ": got 0x" << std::hex << digest << "ULL";
  }
}

TEST(WalkProximityGoldenTest, ShortWalkDigestsArePinned) {
  const Graph g = HubHeavyGraph();
  for (const GoldenCase& c : kShortWalkGoldenCases) {
    const auto provider = c.make(g);
    const uint64_t digest =
        EdgeProximityDigest(ComputeEdgeProximities(g, *provider));
    EXPECT_EQ(digest, c.digest)
        << c.label << ": got 0x" << std::hex << digest << "ULL";
  }
}

// One instance answers a hub row (large enough that the row cache's clear
// takes its full-fill branch), then leaf rows, then the hub again. A value
// left behind in any reused scratch would make a later row differ from the
// same row computed by a fresh instance.
TEST(WalkProximityGoldenTest, ReusedInstanceMatchesFreshRows) {
  const Graph g = HubHeavyGraph();
  const size_t n = g.num_nodes();
  NodeId hub = 0;
  std::vector<NodeId> leaves;
  for (NodeId v = 0; v < n; ++v) {
    if (g.Degree(v) > g.Degree(hub)) hub = v;
    if (g.Degree(v) == 5 && leaves.size() < 4) leaves.push_back(v);
  }
  ASSERT_EQ(leaves.size(), 4u);
  std::vector<NodeId> order = {hub};
  order.insert(order.end(), leaves.begin(), leaves.end());
  order.push_back(hub);
  order.push_back(leaves.front());

  for (const GoldenCase& c : kGoldenCases) {
    const auto reused = c.make(g);
    size_t hub_nnz = 0;
    for (NodeId j = 0; j < n; ++j) hub_nnz += reused->At(hub, j) != 0.0;
    EXPECT_GT(hub_nnz, n / 4) << c.label << ": hub row too small";
    for (NodeId i : order) {
      const auto fresh = c.make(g);
      for (NodeId j = 0; j < n; ++j) {
        ASSERT_EQ(reused->At(i, j), fresh->At(i, j))
            << c.label << " row " << i << " col " << j;
      }
    }
  }
}

// The exact walk row with every step pushed: each step spreads the frontier
// into a dense next[] in push order, then adds scale · next[u] to the row.
// The providers push only the first L-1 steps and At() pulls the last; this
// full push is the reference the pull must match bit for bit.
enum class Walk { kDeepWalk, kKatz };

std::vector<double> PushedRow(const Graph& g, Walk walk, int steps,
                              double beta, NodeId source) {
  const size_t n = g.num_nodes();
  std::vector<double> row(n, 0.0), cur(n, 0.0), next(n, 0.0);
  std::vector<NodeId> cur_nz = {source}, next_nz;
  cur[source] = 1.0;
  const double inv_t = 1.0 / static_cast<double>(steps);
  double beta_pow = 1.0;
  for (int l = 1; l <= steps; ++l) {
    beta_pow *= beta;
    for (NodeId k : cur_nz) {
      const size_t deg = g.Degree(k);
      const double push = walk == Walk::kDeepWalk && deg > 0
                              ? cur[k] / static_cast<double>(deg)
                              : cur[k];
      for (NodeId u : g.Neighbors(k)) {
        if (next[u] == 0.0) next_nz.push_back(u);
        next[u] += push;
      }
      cur[k] = 0.0;
    }
    const double scale = walk == Walk::kDeepWalk ? inv_t : beta_pow;
    for (NodeId u : next_nz) row[u] += scale * next[u];
    cur.swap(next);
    cur_nz.swap(next_nz);
    next_nz.clear();
  }
  return row;
}

// A hub-heavy graph, a star, a path, and a graph with an isolated node. The
// star and the power-law graph make both pull branches run: walking the
// frontier (a short frontier against a hub's N(j)) and walking N(j) (with and
// without the sort back into push order, at T = 2 and T >= 3).
std::vector<std::pair<const char*, Graph>> PullFixtures() {
  std::vector<std::pair<const char*, Graph>> graphs;
  graphs.emplace_back("powerlaw", PowerLawCluster(300, 5, 0.3, /*seed=*/3));
  graphs.emplace_back("star", StarGraph(40));
  graphs.emplace_back("path", PathGraph(30));
  const Graph ba = BarabasiAlbert(60, 2, /*seed=*/5);
  graphs.emplace_back("isolated", Graph::FromEdges(61, ba.Edges()));
  return graphs;
}

// Sources hub, leaf, isolated (when the graph has one), hub, then every node:
// one reused instance sees a row switch after each, so a term or frontier
// rank left over from the previous source would change a later value.
std::vector<NodeId> PullSourceOrder(const Graph& g) {
  NodeId hub = 0, leaf = 0;
  std::optional<NodeId> isolated;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const size_t d = g.Degree(v);
    if (d > g.Degree(hub)) hub = v;
    if (d > 0 && (g.Degree(leaf) == 0 || d < g.Degree(leaf))) leaf = v;
    if (d == 0 && !isolated) isolated = v;
  }
  std::vector<NodeId> order = {hub, leaf};
  if (isolated) order.push_back(*isolated);
  order.push_back(hub);
  for (NodeId v = 0; v < g.num_nodes(); ++v) order.push_back(v);
  return order;
}

TEST(WalkProximityPullTest, PulledLastStepMatchesPushedRowBitForBit) {
  constexpr double kBeta = 0.05;
  for (const auto& [label, g] : PullFixtures()) {
    const std::vector<NodeId> order = PullSourceOrder(g);
    for (int steps = 1; steps <= 4; ++steps) {
      for (Walk walk : {Walk::kDeepWalk, Walk::kKatz}) {
        std::unique_ptr<ProximityProvider> provider;
        if (walk == Walk::kDeepWalk) {
          provider = std::make_unique<DeepWalkProximity>(g, steps);
        } else {
          provider = std::make_unique<KatzProximity>(g, steps, kBeta);
        }
        size_t mismatches = 0;
        for (NodeId i : order) {
          const std::vector<double> want = PushedRow(g, walk, steps, kBeta, i);
          for (NodeId j = 0; j < g.num_nodes(); ++j) {
            const double got = provider->At(i, j);
            if (std::bit_cast<uint64_t>(got) !=
                    std::bit_cast<uint64_t>(want[j]) &&
                ++mismatches <= 3) {
              ADD_FAILURE() << label << " " << provider->Name() << " At("
                            << i << "," << j << ") = " << got << ", pushed "
                            << want[j];
            }
          }
        }
        EXPECT_EQ(mismatches, 0u) << label << " " << provider->Name();
      }
    }
  }
}

}  // namespace
}  // namespace sepriv
