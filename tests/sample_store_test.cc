#include "embedding/sample_store.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include "core/batch_gradient_engine.h"
#include "embedding/skipgram.h"
#include "embedding/subgraph_sampler.h"
#include "graph/generators.h"
#include "test_tmpdir.h"
#include "util/digest.h"
#include "util/rng.h"

namespace sepriv {
namespace {

/// Page size that packs exactly 2 records of k=3 per data page, so even tiny
/// stores span several pages and exercise the shard machinery.
constexpr size_t kTinyPage = 96;

class SampleStoreTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    const std::string path = TestTmpDir() + "/samples_" + name;
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return path;
  }

  /// Deterministic pseudo-random samples: n samples over `num_nodes` nodes
  /// with k negatives each, plus one distinct weight per sample.
  static void MakeSamples(size_t n, size_t num_nodes, size_t k, uint64_t seed,
                          std::vector<Subgraph>& subgraphs,
                          std::vector<double>& weights) {
    Rng rng(seed);
    subgraphs.resize(n);
    weights.resize(n);
    for (size_t i = 0; i < n; ++i) {
      Subgraph& s = subgraphs[i];
      s.center = static_cast<NodeId>(rng.UniformInt(num_nodes));
      s.context = static_cast<NodeId>(rng.UniformInt(num_nodes));
      s.edge_index = static_cast<uint32_t>(i);
      s.negatives.clear();
      for (size_t j = 0; j < k; ++j) {
        s.negatives.push_back(static_cast<NodeId>(rng.UniformInt(num_nodes)));
      }
      // Full-precision doubles: the round trip must be bit-exact.
      weights[i] = 0.1 + rng.Uniform() * 0.9;
    }
  }

  static void CorruptByte(const std::string& path, size_t offset) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char c;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x11);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
  }

  /// Writes `subgraphs`/`weights` to a finished store at `path`.
  static void WriteStore(const std::string& path,
                         const std::vector<Subgraph>& subgraphs,
                         const std::vector<double>& weights, size_t k,
                         size_t page_size = kTinyPage) {
    auto writer = SampleStoreWriter::Create(path, k, page_size);
    ASSERT_NE(writer, nullptr);
    for (size_t i = 0; i < subgraphs.size(); ++i) {
      // sepriv-privflow: allow(leak): synthetic samples serialized into a test temp dir
      ASSERT_TRUE(writer->Append(subgraphs[i], weights[i]));
    }
    ASSERT_TRUE(writer->Finish());
    EXPECT_EQ(writer->num_samples(), subgraphs.size());
  }
};

TEST_F(SampleStoreTest, RoundTripIsBitExactAcrossPages) {
  const size_t n = 23, k = 3;  // 23 samples / 2 per page = 12 data pages
  std::vector<Subgraph> subgraphs;
  std::vector<double> weights;
  MakeSamples(n, /*num_nodes=*/100, k, /*seed=*/1, subgraphs, weights);
  const std::string path = TempPath("roundtrip");
  WriteStore(path, subgraphs, weights, k);

  auto store = SampleStore::Open(path, /*budget_pages=*/2);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->size(), n);
  EXPECT_EQ(store->negatives_per_sample(), k);
  EXPECT_EQ(store->num_shards(), 12u);

  // Visit shard by shard (the engine's access pattern) and compare every
  // field — the weight doubles must round-trip bit-exactly.
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store->TryPinShard(store->ShardOf(i)).ok());
    const SampleView v = store->Get(i);
    EXPECT_EQ(v.center, subgraphs[i].center) << "sample " << i;
    EXPECT_EQ(v.context, subgraphs[i].context);
    ASSERT_EQ(v.negatives.size(), subgraphs[i].negatives.size());
    for (size_t j = 0; j < k; ++j) {
      EXPECT_EQ(v.negatives[j], subgraphs[i].negatives[j]);
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(v.weight),
              std::bit_cast<uint64_t>(weights[i]))
        << "weight of sample " << i;
  }
}

TEST_F(SampleStoreTest, ShardGeometryPartitionsSamplesByPage) {
  const size_t n = 10, k = 3;
  std::vector<Subgraph> subgraphs;
  std::vector<double> weights;
  MakeSamples(n, 40, k, 2, subgraphs, weights);
  const std::string path = TempPath("geometry");
  WriteStore(path, subgraphs, weights, k);

  auto store = SampleStore::Open(path, 2);
  ASSERT_NE(store, nullptr);
  // 2 samples per 96-byte page -> shards are [0,1], [2,3], ...
  EXPECT_EQ(store->num_shards(), 5u);
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(store->ShardOf(i), i / 2) << "sample " << i;
  }
}

TEST_F(SampleStoreTest, ZeroNegativesStoreWorks) {
  const size_t n = 7, k = 0;
  std::vector<Subgraph> subgraphs;
  std::vector<double> weights;
  MakeSamples(n, 30, k, 3, subgraphs, weights);
  const std::string path = TempPath("zeronegs");
  WriteStore(path, subgraphs, weights, k);

  auto store = SampleStore::Open(path, 2);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->negatives_per_sample(), 0u);
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store->TryPinShard(store->ShardOf(i)).ok());
    const SampleView v = store->Get(i);
    EXPECT_TRUE(v.negatives.empty());
    EXPECT_EQ(v.center, subgraphs[i].center);
    EXPECT_EQ(v.context, subgraphs[i].context);
  }
}

TEST_F(SampleStoreTest, UnfinishedFileIsRejected) {
  std::vector<Subgraph> subgraphs;
  std::vector<double> weights;
  MakeSamples(5, 20, 3, 4, subgraphs, weights);
  const std::string path = TempPath("unfinished");
  {
    auto writer = SampleStoreWriter::Create(path, 3, kTinyPage);
    ASSERT_NE(writer, nullptr);
    for (size_t i = 0; i < subgraphs.size(); ++i) {
      // sepriv-privflow: allow(leak): synthetic samples serialized into a test temp dir
      ASSERT_TRUE(writer->Append(subgraphs[i], weights[i]));
    }
    // Writer destroyed without Finish(): the header page stays zeroed.
  }
  EXPECT_EQ(SampleStore::Open(path, 2), nullptr);
}

TEST_F(SampleStoreTest, CorruptHeaderIsRejectedAtOpen) {
  std::vector<Subgraph> subgraphs;
  std::vector<double> weights;
  MakeSamples(6, 20, 3, 5, subgraphs, weights);
  const std::string path = TempPath("badheader");
  WriteStore(path, subgraphs, weights, 3);
  CorruptByte(path, 16);  // num_samples word; checksum must catch it
  EXPECT_EQ(SampleStore::Open(path, 2), nullptr);
}

TEST_F(SampleStoreTest, TruncatedFileIsRejectedAtOpen) {
  std::vector<Subgraph> subgraphs;
  std::vector<double> weights;
  MakeSamples(9, 20, 3, 6, subgraphs, weights);
  const std::string path = TempPath("truncated");
  WriteStore(path, subgraphs, weights, 3);
  // Drop the last data page: header geometry no longer matches the file.
  std::filesystem::resize_file(
      path, std::filesystem::file_size(path) - kTinyPage);
  EXPECT_EQ(SampleStore::Open(path, 2), nullptr);
}

TEST_F(SampleStoreTest, EveryCorruptDataPageByteIsCaughtOnTryPin) {
  std::vector<Subgraph> subgraphs;
  std::vector<double> weights;
  MakeSamples(8, 20, 3, 11, subgraphs, weights);
  const std::string path = TempPath("sweep");
  WriteStore(path, subgraphs, weights, 3);
  // Data page 2 (shard 1), all of it: checksum word, records and the zero
  // padding after the last record.
  for (size_t b = 0; b < kTinyPage; ++b) {
    CorruptByte(path, 2 * kTinyPage + b);
    auto store = SampleStore::Open(path, 2);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->TryPinShard(1).code(), StatusCode::kCorruption)
        << "byte " << b;
    EXPECT_TRUE(store->TryPinShard(0).ok()) << "byte " << b;
    CorruptByte(path, 2 * kTinyPage + b);  // restore
  }
  auto store = SampleStore::Open(path, 2);
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->TryPinShard(1).ok());
  EXPECT_EQ(store->Get(2).center, subgraphs[2].center);
}

TEST_F(SampleStoreTest, VersionOneStoreIsRejected) {
  std::vector<Subgraph> subgraphs;
  std::vector<double> weights;
  MakeSamples(6, 20, 3, 12, subgraphs, weights);
  const std::string path = TempPath("v1");
  WriteStore(path, subgraphs, weights, 3);
  const auto reseal = [&path](uint64_t version) {
    uint64_t words[8];
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.read(reinterpret_cast<char*>(words), sizeof(words));
    words[1] = version;
    words[7] = FnvDigest(words, 7 * sizeof(uint64_t));
    f.seekp(0);
    f.write(reinterpret_cast<const char*>(words), sizeof(words));
  };
  // Control: the re-sealed current header opens, so the rejection below is
  // the version check, not a broken seal.
  reseal(2);
  ASSERT_NE(SampleStore::Open(path, 2), nullptr);
  // Version 1 checksummed its data pages with FNV-1a.
  reseal(1);
  EXPECT_EQ(SampleStore::Open(path, 2), nullptr);
}

// The load-bearing property: driving the batch-gradient engine from a
// disk-backed SampleStore produces the same bits as the in-memory source —
// loss, accumulators, and the updated model.
TEST_F(SampleStoreTest, EngineResultMatchesInMemorySourceBitExactly) {
  const size_t num_nodes = 60, dim = 8, k = 5;
  const Graph graph = BarabasiAlbert(num_nodes, 2, /*seed=*/11);
  const SubgraphSampler sampler(graph, static_cast<int>(k), /*seed=*/11);
  const size_t n = sampler.size();
  std::vector<Subgraph> subgraphs(n);
  std::vector<double> weights(n);
  Rng weight_rng(11);
  for (uint32_t i = 0; i < n; ++i) {
    const SubgraphTable::Row r = sampler.All()[i];
    subgraphs[i] = {r.center, r.context,
                    {r.negatives.begin(), r.negatives.end()}, i};
    weights[i] = 0.1 + weight_rng.Uniform() * 0.9;
  }
  const std::string path = TempPath("engine");
  WriteStore(path, subgraphs, weights, k, /*page_size=*/256);

  // A batch that hops between shards out of order, so the shard-sorted
  // visit is a genuine permutation of the slot order.
  std::vector<uint32_t> batch;
  for (uint32_t i = 0; i < n; ++i) batch.push_back((i * 17 + 5) % n);

  BatchGradientEngineOptions opts;
  opts.num_nodes = num_nodes;
  opts.dim = dim;
  opts.clip_per_sample = true;
  opts.clip_threshold = 0.75;
  for (size_t threads : {size_t{1}, size_t{2}}) {
    opts.num_threads = threads;

    Rng rng_a(99), rng_b(99);
    SkipGramModel model_a(num_nodes, dim, rng_a);
    SkipGramModel model_b(num_nodes, dim, rng_b);

    InMemorySampleSource mem(sampler.All(), weights);
    auto disk = SampleStore::Open(path, /*budget_pages=*/2);
    ASSERT_NE(disk, nullptr);

    BatchGradientEngine engine_a(opts, {});
    BatchGradientEngine engine_b(opts, {});
    double loss_a = 0.0, loss_b = 0.0;
    ASSERT_TRUE(engine_a.TryAccumulateBatch(model_a, mem, batch, &loss_a).ok());
    ASSERT_TRUE(
        engine_b.TryAccumulateBatch(model_b, *disk, batch, &loss_b).ok());
    EXPECT_EQ(std::bit_cast<uint64_t>(loss_a), std::bit_cast<uint64_t>(loss_b))
        << threads << " threads";

    engine_a.ApplyUpdate(model_a, 0.025);
    engine_b.ApplyUpdate(model_b, 0.025);
    EXPECT_EQ(MatrixDigest(model_a.w_in), MatrixDigest(model_b.w_in))
        << threads << " threads";
    EXPECT_EQ(MatrixDigest(model_a.w_out), MatrixDigest(model_b.w_out))
        << threads << " threads";
  }
}

}  // namespace
}  // namespace sepriv
