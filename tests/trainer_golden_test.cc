// Pins the bits of the model that Train() and TryTrainOutOfCore() publish.
//
// The other trainer tests compare runs with each other (thread counts,
// in-memory against out of core); these compare them with fixed digests, so
// a change to the engine's fork/join, slab, noise kernel or batch sampler
// that moves a single bit of w_in or w_out fails here even if it moves every
// configuration the same way. The digests hold at every SIMD level and
// thread count; a PR that deliberately changes the trained model re-records
// them and says why.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/se_privgemb.h"
#include "graph/generators.h"
#include "graph/shard.h"
#include "test_tmpdir.h"
#include "util/digest.h"

namespace sepriv {
namespace {

struct GoldenCase {
  const char* label;
  PerturbationStrategy perturbation;
  size_t batch_size;
  EmbeddingStorage storage;
  uint64_t w_in;
  uint64_t w_out;
};

// BA(2000, 4) has about 8000 edges, so B = 2048 draws a quarter of GS and
// its batches touch most rows several times.
const GoldenCase kGoldenCases[] = {
    {"nonzero/B128", PerturbationStrategy::kNonZero, 128,
     EmbeddingStorage::kFloat64, 0xe5d5efd83f6cf07fULL,
     0x7b81b272614b35aeULL},
    {"nonzero/B2048", PerturbationStrategy::kNonZero, 2048,
     EmbeddingStorage::kFloat64, 0x2c31c15001b07323ULL,
     0x7e5c2360d327197bULL},
    {"naive/B128", PerturbationStrategy::kNaive, 128,
     EmbeddingStorage::kFloat64, 0xb43eb788101863acULL,
     0xae4f0597f9db71b7ULL},
    {"none/B128", PerturbationStrategy::kNone, 128,
     EmbeddingStorage::kFloat64, 0x1c1b69940ecb3376ULL,
     0xed0f07a0ee657b7dULL},
    {"nonzero/B128/f32", PerturbationStrategy::kNonZero, 128,
     EmbeddingStorage::kFloat32, 0xa7e036700b6e5944ULL,
     0xa0eb15b2d6ab31f8ULL},
};

const Graph& GoldenGraph() {
  static const Graph g = BarabasiAlbert(2000, 4, /*seed=*/11);
  return g;
}

SePrivGEmbConfig GoldenConfig(const GoldenCase& c, size_t threads) {
  SePrivGEmbConfig cfg;
  cfg.dim = 32;
  cfg.batch_size = c.batch_size;
  cfg.max_epochs = 40;
  cfg.perturbation = c.perturbation;
  cfg.embedding_storage = c.storage;
  cfg.num_threads = threads;
  cfg.seed = 2025;
  return cfg;
}

void ExpectPinned(const TrainResult& r, const GoldenCase& c,
                  const std::string& where) {
  const uint64_t w_in = MatrixDigest(r.model.w_in);
  const uint64_t w_out = MatrixDigest(r.model.w_out);
  EXPECT_EQ(w_in, c.w_in) << where << ": w_in got 0x" << std::hex << w_in
                          << "ULL";
  EXPECT_EQ(w_out, c.w_out) << where << ": w_out got 0x" << std::hex << w_out
                            << "ULL";
}

TEST(TrainerGoldenTest, ModelDigestsArePinned) {
  const Graph& g = GoldenGraph();
  for (const GoldenCase& c : kGoldenCases) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SePrivGEmb trainer(g, ProximityKind::kPreferentialAttachment,
                         GoldenConfig(c, threads));
      ExpectPinned(trainer.Train(), c,
                   std::string(c.label) + " threads=" +
                       std::to_string(threads));
    }
  }

  // Out of core, through SSD shards and 4 KiB sample pages: the same bits
  // as the in-memory kNonZero run.
  const std::string root = TestTmpDir();
  ASSERT_TRUE(WriteGraphShards(g, root + "/shards", 4));
  auto store = SsdGraphStore::Open(root + "/shards", /*budget_pages=*/2);
  ASSERT_NE(store, nullptr);
  OutOfCoreTrainOptions ooc;
  ooc.work_dir = root + "/work";
  ooc.sample_pool_pages = 2;
  ooc.sample_page_bytes = 4096;
  TrainResult result;
  const Status status =
      TryTrainOutOfCore(*store, ProximityKind::kPreferentialAttachment,
                        GoldenConfig(kGoldenCases[0], 4), ooc, &result);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectPinned(result, kGoldenCases[0], "out of core");
}

}  // namespace
}  // namespace sepriv
