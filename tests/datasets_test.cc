#include "graph/datasets.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

namespace sepriv {
namespace {

TEST(DatasetsTest, AllSixListed) {
  EXPECT_EQ(AllDatasets().size(), 6u);
  EXPECT_EQ(DatasetName(DatasetId::kChameleon), "Chameleon");
  EXPECT_EQ(DatasetName(DatasetId::kDblp), "DBLP");
}

TEST(DatasetsTest, ChameleonStandInMatchesPaperScale) {
  Graph g = MakeDataset(DatasetId::kChameleon);
  EXPECT_EQ(g.num_nodes(), 2277u);
  // |E| within 10% of the paper's 31,421.
  EXPECT_NEAR(static_cast<double>(g.num_edges()), 31421.0, 3142.0);
}

TEST(DatasetsTest, PpiStandInMatchesPaperScale) {
  Graph g = MakeDataset(DatasetId::kPpi);
  EXPECT_EQ(g.num_nodes(), 3890u);
  EXPECT_NEAR(static_cast<double>(g.num_edges()), 76584.0, 7658.0);
}

TEST(DatasetsTest, PowerStandInSparseAndGridLike) {
  Graph g = MakeDataset(DatasetId::kPower);
  EXPECT_EQ(g.num_nodes(), 4941u);
  EXPECT_NEAR(static_cast<double>(g.num_edges()), 6594.0, 660.0);
  EXPECT_LT(g.AverageDegree(), 3.2);  // grid-like sparsity
  EXPECT_LT(g.MaxDegree(), 40u);      // no social-style hubs
}

TEST(DatasetsTest, ArxivStandInMatchesPaperScale) {
  Graph g = MakeDataset(DatasetId::kArxiv);
  EXPECT_EQ(g.num_nodes(), 5242u);
  EXPECT_NEAR(static_cast<double>(g.num_edges()), 14496.0, 2200.0);
}

TEST(DatasetsTest, BlogCatalogStandInDense) {
  Graph g = MakeDataset(DatasetId::kBlogCatalog);
  EXPECT_EQ(g.num_nodes(), 10312u);
  EXPECT_NEAR(static_cast<double>(g.num_edges()), 333983.0, 33398.0);
  EXPECT_GT(g.MaxDegree(), 200u);  // hub-dominated social structure
}

TEST(DatasetsTest, DblpStandInCappedAt20k) {
  Graph g = MakeDataset(DatasetId::kDblp);
  EXPECT_EQ(g.num_nodes(), 20000u);
  // Average degree near the paper's 3.88.
  EXPECT_NEAR(g.AverageDegree(), 3.88, 1.2);
}

TEST(DatasetsTest, ScaleShrinksProportionally) {
  Graph full = MakeDataset(DatasetId::kChameleon, 1.0);
  Graph half = MakeDataset(DatasetId::kChameleon, 0.5);
  EXPECT_NEAR(static_cast<double>(half.num_nodes()),
              0.5 * static_cast<double>(full.num_nodes()), 2.0);
  EXPECT_LT(half.num_edges(), full.num_edges());
}

TEST(DatasetsTest, DeterministicPerSeed) {
  Graph a = MakeDataset(DatasetId::kArxiv, 0.2, 5);
  Graph b = MakeDataset(DatasetId::kArxiv, 0.2, 5);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (size_t i = 0; i < a.Edges().size(); ++i)
    EXPECT_EQ(a.Edges()[i], b.Edges()[i]);
}

TEST(DatasetsTest, SeedChangesGraph) {
  Graph a = MakeDataset(DatasetId::kArxiv, 0.2, 5);
  Graph b = MakeDataset(DatasetId::kArxiv, 0.2, 6);
  size_t same = 0;
  for (const Edge& e : a.Edges()) same += b.HasEdge(e.u, e.v);
  EXPECT_LT(same, a.num_edges());
}

TEST(DatasetsTest, MinimumFloorAtTinyScale) {
  // Even at extreme scales the generators keep a workable minimum size.
  Graph g = MakeDataset(DatasetId::kChameleon, 0.01);
  EXPECT_GE(g.num_nodes(), 128u);
}

TEST(DatasetsDeathTest, RejectsBadScale) {
  EXPECT_DEATH(MakeDataset(DatasetId::kPpi, 0.0), "scale");
  EXPECT_DEATH(MakeDataset(DatasetId::kPpi, 1.5), "scale");
}

// GoogleTest prints a param that has no PrintTo overload as its raw bytes, and
// CTest discovery puts that dump into the test name. DatasetSpec has four
// padding bytes after `id` whose contents are indeterminate, so the specs are
// copied into zeroed storage: the dump, and with it each test name, is then
// the same on every build and run.
std::vector<DatasetSpec> ZeroPaddedDatasets() {
  std::vector<DatasetSpec> specs(AllDatasets().size());
  for (size_t i = 0; i < specs.size(); ++i) {
    std::memset(static_cast<void*>(&specs[i]), 0, sizeof(DatasetSpec));
    specs[i].id = AllDatasets()[i].id;
    specs[i].name = AllDatasets()[i].name;
    specs[i].paper_nodes = AllDatasets()[i].paper_nodes;
    specs[i].paper_edges = AllDatasets()[i].paper_edges;
  }
  return specs;
}

class AllDatasetsTest : public ::testing::TestWithParam<DatasetSpec> {};

TEST_P(AllDatasetsTest, SmallScaleStandInIsUsable) {
  // Every stand-in at 10% scale: connected enough to train on, simple graph.
  Graph g = MakeDataset(GetParam().id, 0.1);
  EXPECT_GE(g.num_nodes(), 100u);
  EXPECT_GT(g.num_edges(), g.num_nodes() / 4);
  EXPECT_FALSE(g.HasEdge(0, 0));
}

INSTANTIATE_TEST_SUITE_P(
    Specs, AllDatasetsTest, ::testing::ValuesIn(ZeroPaddedDatasets()),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace sepriv
