// Integration tests for the out-of-core training path: TryTrainOutOfCore must
// reproduce SePrivGEmb::Train() BIT-IDENTICALLY — model matrices, loss
// curve, and privacy accounting — for every graph-store backend, shard
// count, thread count, and buffer-pool budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "core/se_privgemb.h"
#include "embedding/sample_store.h"
#include "embedding/subgraph_sampler.h"
#include "graph/generators.h"
#include "graph/shard.h"
#include "test_tmpdir.h"
#include "util/digest.h"
#include "util/failpoint.h"

namespace sepriv {
namespace {

struct TrainDigest {
  uint64_t w_in = 0;
  uint64_t w_out = 0;
  std::vector<double> loss_curve;
  size_t epochs_run = 0;
  uint64_t spent_epsilon_bits = 0;

  explicit TrainDigest(const TrainResult& r)
      : w_in(MatrixDigest(r.model.w_in)),
        w_out(MatrixDigest(r.model.w_out)),
        loss_curve(r.loss_curve),
        epochs_run(r.epochs_run),
        spent_epsilon_bits(std::bit_cast<uint64_t>(r.spent_epsilon)) {}

  bool operator==(const TrainDigest&) const = default;
};

/// K_n (n even) minus the perfect matching {0,1}, {2,3}, ...: every node's
/// only non-neighbour is its partner.
Graph CompleteMinusMatching(size_t n) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (u % 2 != 0 || v != u + 1) edges.push_back({u, v});
    }
  }
  return Graph::FromEdges(n, std::move(edges));
}

/// TryTrainOutOfCore with the degree preference, expecting success.
TrainResult TrainOutOfCoreOk(GraphStore& store, const SePrivGEmbConfig& cfg,
                             const OutOfCoreTrainOptions& ooc) {
  TrainResult result;
  const Status status = TryTrainOutOfCore(
      store, ProximityKind::kPreferentialAttachment, cfg, ooc, &result);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return result;
}

std::vector<double> Degrees(const Graph& g) {
  std::vector<double> degrees(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    degrees[v] = static_cast<double>(g.Degree(v));
  }
  return degrees;
}

/// Loads every run of every scan shard of `store` in order, as the trainer
/// does, and returns how many runs there were. `visit(view, first, end)`
/// sees each run while its halo is loaded.
template <typename Visit>
size_t ForEachHaloRun(GraphStore& store, ShardHaloOracle& oracle,
                      Visit&& visit) {
  size_t runs = 0;
  for (size_t s = 0; s < store.num_shards(); ++s) {
    PinnedShard pin;
    EXPECT_TRUE(store.TryPin(s, &pin).ok());
    const ShardView& view = pin.view();
    const size_t scan_end = view.edge_begin + view.edge_count;
    for (size_t first = view.edge_begin; first < scan_end; ++runs) {
      size_t end = 0;
      EXPECT_TRUE(oracle.Load(view, first, &end).ok());
      EXPECT_GT(end, first);
      EXPECT_LE(end, scan_end);
      visit(view, first, end);
      first = end;
    }
  }
  return runs;
}

class OocoreTrainTest : public ::testing::Test {
 protected:
  std::string TempDirFor(const std::string& name) {
    const std::string dir = TestTmpDir() + "/oocore_" + name;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return dir;
  }

  /// Small, fast configuration still large enough that batches subsample
  /// (gamma < 1) and several shards/pool evictions occur.
  static SePrivGEmbConfig BaseConfig() {
    SePrivGEmbConfig cfg;
    cfg.dim = 8;
    cfg.batch_size = 32;
    cfg.max_epochs = 4;
    cfg.negatives = 3;
    cfg.seed = 13;
    cfg.perturbation = PerturbationStrategy::kNonZero;
    cfg.proximity_cache_path = "-";  // in-memory reference stays cache-free
    return cfg;
  }
};

TEST_F(OocoreTrainTest, MatchesInMemoryTrainingAcrossStoresShardsAndThreads) {
  const Graph g = BarabasiAlbert(300, 4, /*seed=*/21);
  SePrivGEmbConfig cfg = BaseConfig();

  SePrivGEmb ref_trainer(g, ProximityKind::kPreferentialAttachment, cfg);
  const TrainDigest ref(ref_trainer.Train());

  const std::string ssd_root = TempDirFor("sweep");
  std::filesystem::create_directories(ssd_root);

  int cell = 0;
  for (size_t shards : {size_t{1}, size_t{5}}) {
    const std::string shard_dir = ssd_root + "/g" + std::to_string(shards);
    ASSERT_TRUE(WriteGraphShards(g, shard_dir, shards));
    for (size_t threads : {size_t{1}, size_t{2}}) {
      cfg.num_threads = threads;
      for (const bool ssd : {false, true}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads) +
                     " ssd=" + std::to_string(ssd));
        OutOfCoreTrainOptions ooc;
        ooc.work_dir = ssd_root + "/work" + std::to_string(cell++);
        ooc.sample_pool_pages = 2;
        ooc.sample_page_bytes = 4096;  // small pages => many sample shards

        if (ssd) {
          auto store = SsdGraphStore::Open(shard_dir, /*budget_pages=*/2);
          ASSERT_NE(store, nullptr);
          const TrainDigest got(TrainOutOfCoreOk(*store, cfg, ooc));
          EXPECT_EQ(got, ref);
        } else {
          InMemoryGraphStore store(g, shards);
          const TrainDigest got(TrainOutOfCoreOk(store, cfg, ooc));
          EXPECT_EQ(got, ref);
        }
      }
    }
  }
}

TEST_F(OocoreTrainTest, MatchesInMemoryForOtherPerturbationAndNormalization) {
  const Graph g = BarabasiAlbert(250, 4, /*seed=*/22);
  const std::string root = TempDirFor("variants");
  std::filesystem::create_directories(root);
  const std::string shard_dir = root + "/g";
  ASSERT_TRUE(WriteGraphShards(g, shard_dir, 4));

  struct Variant {
    PerturbationStrategy perturbation;
    bool normalize;
    const char* name;
  };
  const Variant variants[] = {
      {PerturbationStrategy::kNone, true, "nonprivate"},
      {PerturbationStrategy::kNaive, true, "naive"},
      {PerturbationStrategy::kNonZero, false, "unnormalized"},
  };
  int cell = 0;
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    SePrivGEmbConfig cfg = BaseConfig();
    cfg.perturbation = v.perturbation;
    cfg.normalize_proximity = v.normalize;
    cfg.num_threads = 2;

    SePrivGEmb ref_trainer(g, ProximityKind::kPreferentialAttachment, cfg);
    const TrainDigest ref(ref_trainer.Train());

    auto store = SsdGraphStore::Open(shard_dir, 2);
    ASSERT_NE(store, nullptr);
    OutOfCoreTrainOptions ooc;
    ooc.work_dir = root + "/work" + std::to_string(cell++);
    ooc.sample_pool_pages = 2;
    ooc.sample_page_bytes = 4096;
    const TrainDigest got(TrainOutOfCoreOk(*store, cfg, ooc));
    EXPECT_EQ(got, ref);
  }
}

TEST_F(OocoreTrainTest, WorkDirReuseHitsWarmCachesAndStaysIdentical) {
  const Graph g = BarabasiAlbert(200, 3, /*seed=*/23);
  const std::string root = TempDirFor("reuse");
  std::filesystem::create_directories(root);
  const std::string shard_dir = root + "/g";
  ASSERT_TRUE(WriteGraphShards(g, shard_dir, 3));
  const SePrivGEmbConfig cfg = BaseConfig();

  OutOfCoreTrainOptions ooc;
  ooc.work_dir = root + "/work";
  ooc.sample_pool_pages = 2;
  ooc.keep_sample_store = true;

  auto store1 = SsdGraphStore::Open(shard_dir, 2);
  ASSERT_NE(store1, nullptr);
  const TrainDigest cold(TrainOutOfCoreOk(*store1, cfg, ooc));
  EXPECT_TRUE(std::filesystem::exists(ooc.work_dir + "/samples.bin"));

  // Second run reuses the fingerprint-keyed per-shard proximity cache and
  // overwrites the sample store; everything must come out bit-identical.
  auto store2 = SsdGraphStore::Open(shard_dir, 2);
  ASSERT_NE(store2, nullptr);
  ooc.keep_sample_store = false;
  const TrainDigest warm(TrainOutOfCoreOk(*store2, cfg, ooc));
  EXPECT_EQ(warm, cold);
  EXPECT_FALSE(std::filesystem::exists(ooc.work_dir + "/samples.bin"));
}

TEST_F(OocoreTrainTest, GeneratorStreamMatchesBulkSampler) {
  const Graph g = BarabasiAlbert(180, 4, /*seed=*/24);
  const uint64_t seed = 0xfeedbeef;
  const int k = 5;
  SubgraphSampler bulk(g, k, seed);
  ASSERT_EQ(bulk.size(), g.num_edges());

  GraphAdjacencyOracle oracle(g);
  SubgraphGenerator gen(oracle, k, seed);
  Subgraph s;
  for (size_t e = 0; e < g.Edges().size(); ++e) {
    gen.Next(g.Edges()[e].u, g.Edges()[e].v, static_cast<uint32_t>(e), s);
    const SubgraphTable::Row want = bulk.All()[e];
    ASSERT_EQ(s.center, want.center) << "edge " << e;
    ASSERT_EQ(s.context, want.context) << "edge " << e;
    ASSERT_EQ(s.edge_index, e);
    ASSERT_TRUE(std::ranges::equal(s.negatives, want.negatives))
        << "edge " << e;
  }
}

TEST_F(OocoreTrainTest, HaloAnswersEveryProbeOfItsRunOnADenseGraph) {
  // Each center has one valid negative in 48, so rejection sampling often
  // exhausts its tries and the reservoir fallback probes EVERY node; and
  // each later-shard endpoint brings 46 halo entries, so a |V| = 48 budget
  // admits one per run and every scan shard with later shards needs many.
  const Graph g = CompleteMinusMatching(48);
  InMemoryGraphStore store(g, 3);
  const std::vector<double> degrees = Degrees(g);
  ShardHaloOracle oracle(store, degrees);
  size_t max_halo = 0;
  const size_t runs = ForEachHaloRun(
      store, oracle, [&](const ShardView& view, size_t first, size_t end) {
        max_halo = std::max(max_halo, oracle.halo_entries());
        for (size_t e = first; e < end; ++e) {
          const Edge& edge = g.Edges()[e];
          ASSERT_GE(edge.u, view.node_begin);
          ASSERT_LT(edge.u, view.node_end);
          for (const NodeId c : {edge.u, edge.v}) {
            for (NodeId x = 0; x < g.num_nodes(); ++x) {
              ASSERT_EQ(oracle.HasEdge(c, x), g.HasEdge(c, x))
                  << "edge " << e << " center " << c << " probe " << x;
            }
          }
        }
      });
  EXPECT_GT(runs, 2 * store.num_shards());
  EXPECT_GT(max_halo, 0u);
  EXPECT_LE(max_halo, g.num_nodes());
}

TEST_F(OocoreTrainTest, DenseGraphSamplesMatchTheBulkSamplerOneByOne) {
  const Graph g = CompleteMinusMatching(48);
  SePrivGEmbConfig cfg = BaseConfig();
  cfg.negatives = 8;
  SePrivGEmb ref_trainer(g, ProximityKind::kPreferentialAttachment, cfg);
  const TrainDigest ref(ref_trainer.Train());

  const std::string root = TempDirFor("dense");
  std::filesystem::create_directories(root);
  const std::string shard_dir = root + "/g";
  ASSERT_TRUE(WriteGraphShards(g, shard_dir, 3));
  auto store = SsdGraphStore::Open(shard_dir, 2);
  ASSERT_NE(store, nullptr);
  OutOfCoreTrainOptions ooc;
  ooc.work_dir = root + "/work";
  ooc.sample_pool_pages = 2;
  ooc.keep_sample_store = true;
  const TrainDigest got(TrainOutOfCoreOk(*store, cfg, ooc));
  EXPECT_EQ(got, ref);

  // The trainer's first draw seeds Algorithm 1, as in Train().
  Rng rng(cfg.seed);
  const SubgraphSampler bulk(g, cfg.negatives, rng.Next());
  auto samples = SampleStore::Open(ooc.work_dir + "/samples.bin", 2);
  ASSERT_NE(samples, nullptr);
  ASSERT_EQ(samples->size(), bulk.size());
  for (uint32_t i = 0; i < bulk.size(); ++i) {
    ASSERT_TRUE(samples->TryPinShard(samples->ShardOf(i)).ok());
    const SampleView v = samples->Get(i);
    const SubgraphTable::Row want = bulk.All()[i];
    ASSERT_EQ(v.center, want.center) << "sample " << i;
    ASSERT_EQ(v.context, want.context) << "sample " << i;
    ASSERT_TRUE(std::ranges::equal(v.negatives, want.negatives))
        << "sample " << i;
  }
}

TEST_F(OocoreTrainTest, HaloBoundsGraphPoolMissesByRunsTimesShards) {
  const Graph g = BarabasiAlbert(2000, 5, /*seed=*/26);
  const size_t shards = 16;
  const std::string root = TempDirFor("pins");
  std::filesystem::create_directories(root);
  const std::string shard_dir = root + "/g";
  ASSERT_TRUE(WriteGraphShards(g, shard_dir, shards));

  size_t runs = 0;
  {
    auto probe = SsdGraphStore::Open(shard_dir, 2);
    ASSERT_NE(probe, nullptr);
    const std::vector<double> degrees = Degrees(g);
    ShardHaloOracle oracle(*probe, degrees);
    runs = ForEachHaloRun(*probe, oracle,
                          [](const ShardView&, size_t, size_t) {});
  }

  auto store = SsdGraphStore::Open(shard_dir, 2);
  ASSERT_NE(store, nullptr);
  OutOfCoreTrainOptions ooc;
  ooc.work_dir = root + "/work";
  ooc.sample_pool_pages = 2;
  TrainOutOfCoreOk(*store, BaseConfig(), ooc);
  // Three sequential scans (degrees, proximity, Algorithm 1) miss at most
  // once per shard each, and a run pins each other shard at most once. A
  // pin-on-demand oracle switches shards about once per edge instead:
  // thousands of misses here.
  const uint64_t misses = store->pool().stats().misses;
  EXPECT_LE(misses, 3 * shards + runs * (shards - 1))
      << runs << " runs over " << shards << " shards";
}

TEST_F(OocoreTrainTest, HaloLoadSurfacesReadFaultsInsteadOfAborting) {
  const Graph g = BarabasiAlbert(300, 4, /*seed=*/27);
  const std::string root = TempDirFor("halo_fault");
  std::filesystem::create_directories(root);
  const std::string shard_dir = root + "/g";
  ASSERT_TRUE(WriteGraphShards(g, shard_dir, 4));
  auto store = SsdGraphStore::Open(shard_dir, /*budget_pages=*/2);
  ASSERT_NE(store, nullptr);
  const std::vector<double> degrees = Degrees(g);
  ShardHaloOracle oracle(*store, degrees);

  PinnedShard scan;
  ASSERT_TRUE(store->TryPin(0, &scan).ok());
  // Every read now fails, so the halo's first pin of a later shard
  // exhausts the pool's retries.
  ASSERT_TRUE(failpoint::SetSpec("page_file.read=err"));
  size_t end = 0;
  const Status status = oracle.Load(scan.view(), scan->edge_begin, &end);
  failpoint::ClearAll();
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();

  // The fault cleared, the same run loads.
  ASSERT_TRUE(oracle.Load(scan.view(), scan->edge_begin, &end).ok());
  EXPECT_GT(end, scan->edge_begin);
}

TEST_F(OocoreTrainTest, ProximityShardsKnobIsBitIdentical) {
  const Graph g = BarabasiAlbert(150, 3, /*seed=*/25);
  for (const ProximityKind kind : {ProximityKind::kCommonNeighbors,
                                   ProximityKind::kPreferentialAttachment}) {
    SCOPED_TRACE(ProximityKindName(kind));
    SePrivGEmbConfig base = BaseConfig();

    SePrivGEmb plain(g, kind, base);
    const std::vector<double> plain_weights = plain.edge_weights();
    const TrainDigest plain_digest(plain.Train());

    SePrivGEmbConfig sharded_cfg = base;
    sharded_cfg.proximity_shards = 4;
    sharded_cfg.num_threads = 2;
    SePrivGEmb sharded(g, kind, sharded_cfg);
    ASSERT_EQ(sharded.edge_weights().size(), plain_weights.size());
    for (size_t e = 0; e < plain_weights.size(); ++e) {
      ASSERT_EQ(std::bit_cast<uint64_t>(sharded.edge_weights()[e]),
                std::bit_cast<uint64_t>(plain_weights[e]))
          << "edge " << e;
    }
    // Thread count must not matter either; only the proximity evaluation
    // path changed, so training from the same weights matches exactly.
    sharded_cfg.num_threads = 1;
    const TrainDigest sharded_digest(sharded.Train());
    EXPECT_EQ(sharded_digest, plain_digest);
  }
}

}  // namespace
}  // namespace sepriv
