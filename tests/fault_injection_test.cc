// Fault-matrix tests for the out-of-core stack: every IO boundary is driven
// through its failpoint and must degrade per contract — transient faults are
// absorbed by bounded retries, torn bytes are caught by checksums and
// re-read, persistent faults surface as structured errors (never garbage,
// never a hang), seeded schedules replay exactly, and the aborting
// GraphStore::Pin wrapper dies loudly.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "core/se_privgemb.h"
#include "embedding/sample_store.h"
#include "embedding/subgraph_sampler.h"
#include "graph/generators.h"
#include "graph/shard.h"
#include "proximity/proximity.h"
#include "proximity/proximity_engine.h"
#include "test_tmpdir.h"
#include "util/buffer_pool.h"
#include "util/digest.h"
#include "util/failpoint.h"
#include "util/page_file.h"
#include "util/status.h"

namespace sepriv {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::ClearAll();
    root_ = TestTmpDir();
  }
  void TearDown() override { failpoint::ClearAll(); }

  /// A small page file with `pages` distinct pages of `page_size` bytes.
  std::unique_ptr<PageFile> MakePageFile(const std::string& name,
                                         size_t pages,
                                         size_t page_size = 4096) {
    auto file = PageFile::Create(root_ + "/" + name, page_size);
    if (file == nullptr) return nullptr;
    std::vector<char> buf(page_size);
    for (size_t p = 0; p < pages; ++p) {
      std::memset(buf.data(), static_cast<int>('a' + p % 26), buf.size());
      if (!file->TryWritePage(p, buf.data()).ok()) return nullptr;
    }
    return file;
  }

  std::string root_;
};

// --- PageFile primaries -----------------------------------------------------

TEST_F(FaultInjectionTest, PageFileFaultMatrix) {
  auto file = MakePageFile("matrix.pf", 2);
  ASSERT_NE(file, nullptr);
  std::vector<char> buf(file->page_size());

  ASSERT_TRUE(failpoint::SetSpec("page_file.read=err"));
  EXPECT_EQ(file->TryReadPage(0, buf.data()).code(), StatusCode::kIoError);

  ASSERT_TRUE(failpoint::SetSpec("page_file.write=enospc"));
  EXPECT_EQ(file->TryWritePage(0, buf.data()).code(), StatusCode::kNoSpace);
  size_t index = 0;
  EXPECT_EQ(file->TryAppendPage(buf.data(), &index).code(),
            StatusCode::kNoSpace);

  ASSERT_TRUE(failpoint::SetSpec("page_file.sync=err"));
  EXPECT_EQ(file->TrySync().code(), StatusCode::kIoError);

  // A torn read "succeeds" at the PageFile layer with corrupted bytes — the
  // caller's checksum is the detection layer (exercised below via the
  // stores). Here just confirm the bytes differ from the truth.
  failpoint::ClearAll();
  std::vector<char> clean(file->page_size());
  ASSERT_TRUE(file->TryReadPage(1, clean.data()).ok());
  ASSERT_TRUE(failpoint::SetSpec("page_file.read=torn"));
  ASSERT_TRUE(file->TryReadPage(1, buf.data()).ok());
  EXPECT_NE(std::memcmp(clean.data(), buf.data(), clean.size()), 0);

  failpoint::ClearAll();
  EXPECT_TRUE(file->TryReadPage(0, buf.data()).ok());
}

// --- BufferPool: bounded retry, structured surfacing ------------------------

TEST_F(FaultInjectionTest, BufferPoolAbsorbsTransientReadFault) {
  auto file = MakePageFile("transient.pf", 3);
  ASSERT_NE(file, nullptr);
  BufferPool pool(*file, 2);

  // Fire exactly on the first read; the retry (second read) succeeds.
  ASSERT_TRUE(failpoint::SetSpec("page_file.read=err@1"));
  BufferPool::PageHandle handle;
  ASSERT_TRUE(pool.TryPin(0, &handle).ok());
  EXPECT_TRUE(handle.valid());
  EXPECT_EQ(pool.stats().read_retries, 1u);
  EXPECT_EQ(static_cast<char>(handle.data()[0]), 'a');
}

TEST_F(FaultInjectionTest, BufferPoolSurfacesPersistentReadFault) {
  auto file = MakePageFile("persistent.pf", 2);
  ASSERT_NE(file, nullptr);
  BufferPool pool(*file, 2);

  ASSERT_TRUE(failpoint::SetSpec("page_file.read=err"));
  BufferPool::PageHandle handle;
  const Status s = pool.TryPin(0, &handle);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_FALSE(handle.valid());
  // Exactly kMaxIoAttempts reads were spent before giving up.
  EXPECT_EQ(failpoint::HitCount("page_file.read"),
            BufferPool::kMaxIoAttempts);

  // The pool recovers the moment the fault clears: no poisoned frames.
  failpoint::ClearAll();
  ASSERT_TRUE(pool.TryPin(0, &handle).ok());
  EXPECT_TRUE(handle.valid());
}

// --- SsdGraphStore: checksum-driven re-read ---------------------------------

TEST_F(FaultInjectionTest, SsdStoreRereadsTornShardPage) {
  const Graph g = BarabasiAlbert(120, 3, /*seed=*/7);
  const std::string dir = root_ + "/torn_shards";
  ASSERT_TRUE(WriteGraphShards(g, dir, 3));
  auto store = SsdGraphStore::Open(dir, /*budget_pages=*/2);
  ASSERT_NE(store, nullptr);

  // First disk read returns rotted bytes; the shard checksum rejects them,
  // the page is discarded, and the clean re-read succeeds.
  ASSERT_TRUE(failpoint::SetSpec("page_file.read=torn@1"));
  PinnedShard pin;
  ASSERT_TRUE(store->TryPin(0, &pin).ok());
  EXPECT_GE(store->pool().stats().discards, 1u);
  EXPECT_EQ(pin->node_begin, 0u);

  // The recovered view serves real data.
  size_t degree_sum = 0;
  for (NodeId v = pin->node_begin; v < pin->node_end; ++v) {
    degree_sum += pin->Degree(v);
  }
  EXPECT_GT(degree_sum, 0u);
}

TEST_F(FaultInjectionTest, SsdStorePersistentTornSurfacesCorruption) {
  const Graph g = BarabasiAlbert(80, 3, /*seed=*/8);
  const std::string dir = root_ + "/rot_shards";
  ASSERT_TRUE(WriteGraphShards(g, dir, 2));
  auto store = SsdGraphStore::Open(dir, /*budget_pages=*/2);
  ASSERT_NE(store, nullptr);

  ASSERT_TRUE(failpoint::SetSpec("page_file.read=torn"));
  PinnedShard pin;
  const Status s = store->TryPin(0, &pin);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);

  failpoint::ClearAll();
  EXPECT_TRUE(store->TryPin(0, &pin).ok());
}

using FaultInjectionDeathTest = FaultInjectionTest;

TEST_F(FaultInjectionDeathTest, AbortingPinDiesOnPersistentFault) {
  // Re-run the test in a fresh process for the death, so the child never
  // depends on which threads or locks the parent happens to hold at fork.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Graph g = BarabasiAlbert(60, 3, /*seed=*/9);
  const std::string dir = root_ + "/death_shards";
  ASSERT_TRUE(WriteGraphShards(g, dir, 2));
  auto store = SsdGraphStore::Open(dir, /*budget_pages=*/2);
  ASSERT_NE(store, nullptr);

  ASSERT_TRUE(failpoint::SetSpec("page_file.read=err"));
  EXPECT_DEATH(store->Pin(0), "");
}

// --- SampleStore: writer stickiness, reader re-read -------------------------

TEST_F(FaultInjectionTest, SampleWriterFaultsAreStickyAndStructured) {
  Subgraph s;
  s.center = 1;
  s.context = 2;
  s.edge_index = 0;
  s.negatives = {3, 4};

  {
    auto writer = SampleStoreWriter::Create(root_ + "/w_err.bin", 2, 4096);
    ASSERT_NE(writer, nullptr);
    ASSERT_TRUE(failpoint::SetSpec("sample_store.append=err"));
    // sepriv-privflow: allow(leak): synthetic samples serialized into a test temp dir
    EXPECT_FALSE(writer->Append(s, 0.5));
    EXPECT_EQ(writer->status().code(), StatusCode::kIoError);
    failpoint::ClearAll();
    // Sticky: the failure persists after the fault clears — the file is gone.
    EXPECT_FALSE(writer->Append(s, 0.5));
    EXPECT_FALSE(writer->Finish());
  }
  {
    auto writer = SampleStoreWriter::Create(root_ + "/w_nospc.bin", 2, 4096);
    ASSERT_NE(writer, nullptr);
    ASSERT_TRUE(failpoint::SetSpec("sample_store.append=enospc"));
    EXPECT_FALSE(writer->Append(s, 0.5));
    EXPECT_EQ(writer->status().code(), StatusCode::kNoSpace);
    failpoint::ClearAll();
  }
  {
    auto writer = SampleStoreWriter::Create(root_ + "/w_fin.bin", 2, 4096);
    ASSERT_NE(writer, nullptr);
    EXPECT_TRUE(writer->Append(s, 0.5));
    ASSERT_TRUE(failpoint::SetSpec("sample_store.finish=err"));
    EXPECT_FALSE(writer->Finish());
    EXPECT_EQ(writer->status().code(), StatusCode::kIoError);
    failpoint::ClearAll();
    // An unfinished store must not open: the header was never published.
    EXPECT_EQ(SampleStore::Open(root_ + "/w_fin.bin"), nullptr);
  }
}

TEST_F(FaultInjectionTest, SampleStoreRereadsTornDataPage) {
  const std::string path = root_ + "/reread.bin";
  Subgraph s;
  s.negatives = {7, 8, 9};
  {
    auto writer = SampleStoreWriter::Create(path, 3, 4096);
    ASSERT_NE(writer, nullptr);
    for (uint32_t i = 0; i < 200; ++i) {
      s.center = i;
      s.context = i + 1;
      s.edge_index = i;
      // sepriv-privflow: allow(leak): synthetic samples serialized into a test temp dir
      ASSERT_TRUE(writer->Append(s, 0.25 + i));
    }
    ASSERT_TRUE(writer->Finish());
  }
  auto store = SampleStore::Open(path, /*budget_pages=*/2);
  ASSERT_NE(store, nullptr);

  // Torn first read of the pinned data page: checksum rejects, a bounded
  // re-read recovers, and the record contents are exact.
  ASSERT_TRUE(failpoint::SetSpec("page_file.read=torn@1"));
  ASSERT_TRUE(store->TryPinShard(0).ok());
  EXPECT_GE(store->pool().stats().discards, 1u);
  const SampleView v = store->Get(0);
  EXPECT_EQ(v.center, 0u);
  EXPECT_EQ(v.context, 1u);
  EXPECT_EQ(v.weight, 0.25);

  // A persistent fault surfaces instead of looping.
  ASSERT_TRUE(failpoint::SetSpec("page_file.read=err"));
  EXPECT_FALSE(store->TryPinShard(1).ok());
}

// --- Manifest + proximity caches: reject-don't-trust ------------------------

TEST_F(FaultInjectionTest, TornManifestReadIsRejectedNotTrusted) {
  const Graph g = BarabasiAlbert(90, 3, /*seed=*/10);
  const std::string dir = root_ + "/manifest";
  ASSERT_TRUE(WriteGraphShards(g, dir, 2));

  ASSERT_TRUE(failpoint::SetSpec("shard_manifest.read=torn"));
  EXPECT_FALSE(LoadShardManifest(dir).has_value());
  EXPECT_EQ(SsdGraphStore::Open(dir), nullptr);

  failpoint::ClearAll();
  const auto manifest = LoadShardManifest(dir);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->graph_fingerprint, g.Fingerprint());
}

TEST_F(FaultInjectionTest, TornManifestWriteFailsTheSave) {
  const Graph g = BarabasiAlbert(70, 3, /*seed=*/11);
  ASSERT_TRUE(failpoint::SetSpec("shard_manifest.write=torn"));
  EXPECT_FALSE(WriteGraphShards(g, root_ + "/torn_save", 2));
  failpoint::ClearAll();
  // Nothing half-written was published under the manifest's final name.
  EXPECT_FALSE(LoadShardManifest(root_ + "/torn_save").has_value());
}

TEST_F(FaultInjectionTest, TornProximityCacheFallsBackToRecompute) {
  const Graph g = ErdosRenyiGnm(100, 300, /*seed=*/12);
  ProximityOptions opts;
  const auto provider = MakeProximity(ProximityKind::kCommonNeighbors, g,
                                      opts);
  const std::string dir = root_ + "/proxcache";
  const EdgeProximity computed =
      CachedEdgeProximities(g, *provider, opts, /*num_threads=*/1, dir);
  const InMemoryGraphStore store(g);
  const auto entry_loads = [&] {
    return LoadShardProximityCache(dir, g.Fingerprint(), 0,
                                   store.manifest().shards[0].fingerprint,
                                   provider->Name(), opts, g.num_edges())
        .has_value();
  };
  ASSERT_TRUE(entry_loads());

  // A rotted cache file is a miss, never wrong values...
  ASSERT_TRUE(failpoint::SetSpec("proxcache.shard.read=torn"));
  EXPECT_FALSE(entry_loads());

  // ...and the cache-through front end transparently recomputes: the result
  // is bit-identical to the cold path even while the cache is unreadable.
  const EdgeProximity degraded = CachedEdgeProximities(
      g, *provider, opts, /*num_threads=*/1, dir);
  ASSERT_EQ(degraded.values.size(), computed.values.size());
  for (size_t e = 0; e < computed.values.size(); ++e) {
    EXPECT_EQ(degraded.values[e], computed.values[e]);
  }

  failpoint::ClearAll();
  EXPECT_TRUE(entry_loads());
}

// --- End to end: training degrades to a structured error --------------------

TEST_F(FaultInjectionTest, TryTrainOutOfCoreSurfacesPersistentFault) {
  const Graph g = BarabasiAlbert(150, 3, /*seed=*/13);
  const std::string shard_dir = root_ + "/train_shards";
  ASSERT_TRUE(WriteGraphShards(g, shard_dir, 3));
  auto store = SsdGraphStore::Open(shard_dir, /*budget_pages=*/2);
  ASSERT_NE(store, nullptr);

  SePrivGEmbConfig cfg;
  cfg.dim = 8;
  cfg.batch_size = 32;
  cfg.max_epochs = 1;
  cfg.negatives = 2;
  cfg.seed = 13;
  cfg.proximity_cache_path = "-";
  OutOfCoreTrainOptions ooc;
  ooc.work_dir = root_ + "/train_work";
  ooc.sample_page_bytes = 4096;

  ASSERT_TRUE(failpoint::SetSpec("page_file.read=err"));
  TrainResult result;
  const Status s = TryTrainOutOfCore(
      *store, ProximityKind::kPreferentialAttachment, cfg, ooc, &result);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);

  // The same run succeeds once the fault clears: no poisoned state survives
  // in the store or its pool.
  failpoint::ClearAll();
  ASSERT_TRUE(TryTrainOutOfCore(*store,
                                ProximityKind::kPreferentialAttachment, cfg,
                                ooc, &result)
                  .ok());
  EXPECT_EQ(result.epochs_run, 1u);
}

TEST_F(FaultInjectionTest, SeededReadScheduleReplaysExactlyOutOfCore) {
  // Every page read happens on the thread that pins, in an order fixed by
  // the inputs, so one seeded schedule of transient read faults hits the
  // same reads on every run: fault counts, retries, pool traffic and model
  // bits all replay.
  const Graph g = BarabasiAlbert(2000, 4, /*seed=*/14);
  const std::string shard_dir = root_ + "/replay_shards";
  ASSERT_TRUE(WriteGraphShards(g, shard_dir, 32));

  SePrivGEmbConfig cfg;
  cfg.dim = 8;
  cfg.batch_size = 64;
  cfg.max_epochs = 10;
  cfg.negatives = 3;
  cfg.seed = 14;
  cfg.proximity_cache_path = "-";

  struct Replay {
    uint64_t hits, fires, retries, misses, w_in, w_out;
  };
  std::vector<Replay> runs;
  for (int run = 0; run < 3; ++run) {
    auto store = SsdGraphStore::Open(shard_dir, /*budget_pages=*/4);
    ASSERT_NE(store, nullptr);
    OutOfCoreTrainOptions ooc;
    ooc.work_dir = root_ + "/replay_work" + std::to_string(run);
    ooc.sample_page_bytes = 4096;
    ASSERT_TRUE(failpoint::SetSpec("page_file.read=err~0.02@7"));
    TrainResult result;
    const Status s = TryTrainOutOfCore(
        *store, ProximityKind::kPreferentialAttachment, cfg, ooc, &result);
    ASSERT_TRUE(s.ok()) << s.ToString();
    const BufferPoolStats stats = store->pool().stats();
    runs.push_back({failpoint::HitCount("page_file.read"),
                    failpoint::FireCount("page_file.read"),
                    stats.read_retries, stats.misses,
                    MatrixDigest(result.model.w_in),
                    MatrixDigest(result.model.w_out)});
  }
  EXPECT_GT(runs[0].fires, 0u);
  EXPECT_GT(runs[0].retries, 0u);
  for (int run = 1; run < 3; ++run) {
    EXPECT_EQ(runs[run].hits, runs[0].hits) << "run " << run;
    EXPECT_EQ(runs[run].fires, runs[0].fires) << "run " << run;
    EXPECT_EQ(runs[run].retries, runs[0].retries) << "run " << run;
    EXPECT_EQ(runs[run].misses, runs[0].misses) << "run " << run;
    EXPECT_EQ(runs[run].w_in, runs[0].w_in) << "run " << run;
    EXPECT_EQ(runs[run].w_out, runs[0].w_out) << "run " << run;
  }
}

}  // namespace
}  // namespace sepriv
