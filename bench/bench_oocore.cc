// Out-of-core training benchmark + correctness witness.
//
// Builds a Barabási–Albert graph, shards it to an SSD-resident page file,
// and runs the full private trainer twice: the classic in-memory path
// (SePrivGEmb::Train) and the out-of-core path (TrainOutOfCore) paging the
// graph through a buffer pool whose budget is a small fraction — at least
// 8× smaller — of the on-disk graph. The headline record,
// "oocore/digests_identical", witnesses that the two models are
// BIT-IDENTICAL (Win/Wout digests and the loss curve), for every shard
// count and pool budget in the sweep. Throughput, buffer-pool hit/miss
// counters, and process RSS ride along so baselines track the IO path.
//
// Environment knobs:
//   SEPRIV_BENCH_OOC_NODES    graph size              (default 4000)
//   SEPRIV_BENCH_OOC_DIM     embedding dimension      (default 32)
//   SEPRIV_BENCH_OOC_BATCH   batch size               (default 256)
//   SEPRIV_BENCH_OOC_EPOCHS  training epochs          (default 10)
//   SEPRIV_BENCH_OOC_SHARDS  shard count              (default 16)
//   SEPRIV_BENCH_OOC_POOL    graph pool budget, pages (default 2)
//   SEPRIV_BENCH_OOC_DIR     scratch directory (default /tmp/sepriv_oocore)
//
// `--json <path>` writes the rows machine-readably (bench_json.h); CI runs
// this under a hard `ulimit -v` to prove the memory ceiling holds.

#include <sys/stat.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "core/se_privgemb.h"
#include "graph/generators.h"
#include "graph/shard.h"
#include "linalg/simd/cpu_features.h"
#include "util/digest.h"
#include "util/env.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

size_t EnvSize(const char* name, size_t fallback) {
  return sepriv::ParseSizeEnv(name, /*max=*/1000000000, fallback);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sepriv;

  const size_t nodes = EnvSize("SEPRIV_BENCH_OOC_NODES", 4000);
  const size_t dim = EnvSize("SEPRIV_BENCH_OOC_DIM", 32);
  const size_t batch = EnvSize("SEPRIV_BENCH_OOC_BATCH", 256);
  const size_t epochs = EnvSize("SEPRIV_BENCH_OOC_EPOCHS", 10);
  const size_t num_shards = EnvSize("SEPRIV_BENCH_OOC_SHARDS", 16);
  const size_t pool_pages = EnvSize("SEPRIV_BENCH_OOC_POOL", 2);
  const std::string dir_env = GetStringEnv("SEPRIV_BENCH_OOC_DIR");
  const std::string scratch =
      dir_env.empty() ? "/tmp/sepriv_oocore" : dir_env;

  SePrivGEmbConfig cfg;
  cfg.dim = dim;
  cfg.batch_size = batch;
  cfg.max_epochs = epochs;
  cfg.negatives = 5;
  cfg.perturbation = PerturbationStrategy::kNonZero;
  cfg.seed = 7;
  cfg.proximity_cache_path = "-";  // keep the reference run cache-free

  // sepriv-privflow: allow(leak): public-by-policy: prints aggregate timing/utility metrics of synthetic benchmark graphs
  std::printf("# bench_oocore\n");
  std::printf("# hardware threads: %zu\n", ThreadPool::ResolveThreads(0));
  std::printf("# BA n=%zu dim=%zu B=%zu epochs=%zu shards=%zu pool=%zu\n",
              nodes, dim, batch, epochs, num_shards, pool_pages);

  WallTimer setup;
  Graph graph = BarabasiAlbert(nodes, 5, /*seed=*/1);
  std::printf("# graph: |V|=%zu |E|=%zu in %.2fs\n", graph.num_nodes(),
              graph.num_edges(), setup.ElapsedSeconds());

  // In-memory reference: the ground truth every out-of-core run must match.
  WallTimer ref_timer;
  SePrivGEmb trainer(graph, ProximityKind::kPreferentialAttachment, cfg);
  const TrainResult ref = trainer.Train();
  const double ref_s = ref_timer.ElapsedSeconds();
  const uint64_t ref_in = MatrixDigest(ref.model.w_in);
  const uint64_t ref_out = MatrixDigest(ref.model.w_out);
  std::printf("# reference: %.2fs digest(w_in)=%016" PRIx64 "\n", ref_s,
              ref_in);

  ::mkdir(scratch.c_str(), 0755);  // EEXIST is fine

  bench::BenchJson json("bench_oocore");
  json.AddMeta("nodes", std::to_string(nodes));
  json.AddMeta("dim", std::to_string(dim));
  json.AddMeta("batch", std::to_string(batch));
  json.AddMeta("epochs", std::to_string(epochs));
  json.AddMeta("shards", std::to_string(num_shards));
  json.AddMeta("pool_pages", std::to_string(pool_pages));
  json.AddMeta("hardware_threads",
               std::to_string(ThreadPool::ResolveThreads(0)));
  json.AddMeta("cpu_features", simd::CpuFeatureString());
  json.AddMeta("simd_active", simd::LevelName(simd::ActiveLevel()));

  std::printf("%-22s %10s %10s %12s %12s %10s\n", "config", "time_s",
              "vs_ref", "pool_hits", "pool_misses", "identical");

  bool all_identical = true;
  double graph_mb = 0.0, pool_mb = 0.0, ratio = 0.0;

  // Sweep shard count (the configured one plus a denser split) and pool
  // budget; each cell must reproduce the reference bits exactly.
  const size_t shard_counts[] = {num_shards, num_shards * 2};
  const size_t budgets[] = {pool_pages, pool_pages + 2};
  for (size_t sc : shard_counts) {
    const std::string dir = scratch + "/graph_s" + std::to_string(sc);
    if (!WriteGraphShards(graph, dir, sc)) {
      std::fprintf(stderr, "cannot write shards under %s\n", dir.c_str());
      return 1;
    }
    for (size_t budget : budgets) {
      auto store = SsdGraphStore::Open(dir, budget);
      if (!store) {
        std::fprintf(stderr, "cannot open shard store %s\n", dir.c_str());
        return 1;
      }

      OutOfCoreTrainOptions ooc;
      ooc.work_dir = scratch + "/work_s" + std::to_string(sc) + "_b" +
                     std::to_string(budget);
      ooc.sample_pool_pages = budget;

      WallTimer timer;
      const TrainResult got = TrainOutOfCore(
          *store, ProximityKind::kPreferentialAttachment, cfg, ooc);
      const double secs = timer.ElapsedSeconds();

      const bool identical = MatrixDigest(got.model.w_in) == ref_in &&
                             MatrixDigest(got.model.w_out) == ref_out &&
                             got.loss_curve == ref.loss_curve &&
                             got.epochs_run == ref.epochs_run;
      all_identical = all_identical && identical;

      const BufferPoolStats stats = store->pool().stats();
      const ShardManifest& manifest = store->manifest();
      const double disk_bytes = static_cast<double>(manifest.num_shards()) *
                                static_cast<double>(manifest.page_size);
      const double cap_bytes = static_cast<double>(store->pool().budget_pages()) *
                               static_cast<double>(manifest.page_size);
      if (sc == num_shards && budget == pool_pages) {
        graph_mb = disk_bytes / (1024.0 * 1024.0);
        pool_mb = cap_bytes / (1024.0 * 1024.0);
        ratio = disk_bytes / cap_bytes;
      }

      char name[64];
      std::snprintf(name, sizeof(name), "train/s%zu_b%zu", sc, budget);
      std::printf("%-22s %10.2f %9.2fx %12" PRIu64 " %12" PRIu64 " %10s\n",
                  name, secs, secs > 0 ? ref_s / secs : 0.0, stats.hits,
                  stats.misses, identical ? "yes" : "NO");
      // sepriv-privflow: allow(leak): public-by-policy: record carries config echoes and aggregate metrics of a synthetic graph
      json.AddRecord(name,
                     {{"time_s", secs},
                      {"identical", identical ? 1.0 : 0.0},
                      {"pool_hits", static_cast<double>(stats.hits)},
                      {"pool_misses", static_cast<double>(stats.misses)},
                      {"pool_evictions", static_cast<double>(stats.evictions)},
                      {"prefetch_loads",
                       static_cast<double>(stats.prefetch_loads)}});
    }
  }

  // The tentpole contract: the disk-resident graph is at least 8x the
  // buffer-pool cap at the primary configuration.
  const bool capped = ratio >= 8.0;
  std::printf("# graph %.2f MiB / pool cap %.2f MiB = %.1fx (%s)\n", graph_mb,
              pool_mb, ratio, capped ? "ok, >= 8x" : "BELOW 8x");
  std::printf("# digests identical across all configs: %s\n",
              all_identical ? "yes" : "NO");

  json.AddRecord("oocore/digests_identical",
                 {{"value", all_identical ? 1.0 : 0.0}});
  json.AddRecord("oocore/graph_to_pool_ratio",
                 {{"value", ratio}, {"graph_mib", graph_mb},
                  {"pool_mib", pool_mb}, {"at_least_8x", capped ? 1.0 : 0.0}});
  json.AddRecord("reference/train", {{"time_s", ref_s}});

  if (const char* path = bench::JsonPathFromArgs(argc, argv)) {
    // sepriv-privflow: allow(leak): public-by-policy: publishes the aggregate-metric records collected above
    if (!json.Write(path)) return 1;
  }
  return (all_identical && capped) ? 0 : 1;
}
