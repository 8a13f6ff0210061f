#include "proximity/local_proximity.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.h"

namespace sepriv {
namespace {

// Test fixture graph:
//   0-1, 0-2, 1-2 (triangle), 2-3, 3-4 (tail)
class LocalProximityTest : public ::testing::Test {
 protected:
  LocalProximityTest()
      : g_(Graph::FromEdges(5, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}})) {}
  Graph g_;
};

TEST_F(LocalProximityTest, CommonNeighborsHandComputed) {
  CommonNeighborsProximity p(g_);
  EXPECT_DOUBLE_EQ(p.At(0, 1), 1.0);  // share node 2
  EXPECT_DOUBLE_EQ(p.At(0, 3), 1.0);  // share node 2
  EXPECT_DOUBLE_EQ(p.At(0, 4), 0.0);
  EXPECT_DOUBLE_EQ(p.At(2, 4), 1.0);  // share node 3
}

TEST_F(LocalProximityTest, CommonNeighborsSymmetric) {
  CommonNeighborsProximity p(g_);
  for (NodeId i = 0; i < 5; ++i)
    for (NodeId j = 0; j < 5; ++j) EXPECT_DOUBLE_EQ(p.At(i, j), p.At(j, i));
}

TEST_F(LocalProximityTest, JaccardHandComputed) {
  JaccardProximity p(g_);
  // N(0)={1,2}, N(1)={0,2}: |∩|=1 (node 2), |∪|=3 -> 1/3.
  EXPECT_NEAR(p.At(0, 1), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(p.At(0, 4), 0.0);
}

TEST_F(LocalProximityTest, JaccardIdenticalNeighborhoods) {
  // Star leaves have identical neighbourhoods -> Jaccard 1.
  Graph star = StarGraph(5);
  JaccardProximity p(star);
  EXPECT_DOUBLE_EQ(p.At(1, 2), 1.0);
}

TEST_F(LocalProximityTest, PreferentialAttachmentFormula) {
  const auto p = MakeProximity(ProximityKind::kPreferentialAttachment, g_);
  // d0=2, d2=3, 2|E|=10 -> 6/10.
  EXPECT_NEAR(p->At(0, 2), 0.6, 1e-12);
  EXPECT_NEAR(p->At(4, 4), 1.0 / 10.0, 1e-12);  // d4=1
}

TEST_F(LocalProximityTest, AdamicAdarHandComputed) {
  AdamicAdarProximity p(g_);
  // Common neighbour of (0,1) is node 2 with degree 3 -> 1/log 3.
  EXPECT_NEAR(p.At(0, 1), 1.0 / std::log(3.0), 1e-12);
  // Common neighbour of (2,4) is node 3 with degree 2 -> 1/log 2.
  EXPECT_NEAR(p.At(2, 4), 1.0 / std::log(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(p.At(0, 4), 0.0);
}

TEST_F(LocalProximityTest, ResourceAllocationHandComputed) {
  ResourceAllocationProximity p(g_);
  EXPECT_NEAR(p.At(0, 1), 1.0 / 3.0, 1e-12);  // via node 2 (deg 3)
  EXPECT_NEAR(p.At(2, 4), 0.5, 1e-12);        // via node 3 (deg 2)
}

TEST_F(LocalProximityTest, ResourceAllocationLeqCommonNeighbors) {
  // RA weights common neighbours by 1/d <= 1, so RA <= CN everywhere.
  Graph g = ErdosRenyiGnm(80, 300, 3);
  ResourceAllocationProximity ra(g);
  CommonNeighborsProximity cn(g);
  for (NodeId i = 0; i < 20; ++i) {
    for (NodeId j = 0; j < 20; ++j) {
      EXPECT_LE(ra.At(i, j), cn.At(i, j) + 1e-12);
    }
  }
}

TEST_F(LocalProximityTest, AdamicAdarDominatesResourceAllocationForBigDegrees) {
  // For common neighbours with degree >= 3, 1/log d > 1/d.
  Graph g = CompleteGraph(6);
  AdamicAdarProximity aa(g);
  ResourceAllocationProximity ra(g);
  EXPECT_GT(aa.At(0, 1), ra.At(0, 1));
}

TEST_F(LocalProximityTest, NamesAreStable) {
  EXPECT_EQ(CommonNeighborsProximity(g_).Name(), "common_neighbors");
  EXPECT_EQ(JaccardProximity(g_).Name(), "jaccard");
  EXPECT_EQ(MakeProximity(ProximityKind::kPreferentialAttachment, g_)->Name(),
            "degree");
  EXPECT_EQ(AdamicAdarProximity(g_).Name(), "adamic_adar");
  EXPECT_EQ(ResourceAllocationProximity(g_).Name(), "resource_allocation");
}

TEST_F(LocalProximityTest, SymmetricHelperAverages) {
  const auto p = MakeProximity(ProximityKind::kPreferentialAttachment, g_);
  EXPECT_DOUBLE_EQ(p->Symmetric(0, 2), p->At(0, 2));  // PA already symmetric
}

}  // namespace
}  // namespace sepriv
