// Thread-scaling + cache benchmark for the parallel proximity engine.
//
// Generates a Barabási–Albert graph (100k nodes by default) and runs the
// full structure-preference precompute (both edge passes of the shard pass
// over a one-shard store) for the high-order preferences the paper
// evaluates — Katz, personalized PageRank, DeepWalk (exact and sampled) —
// at 1/2/4/8 worker threads, reporting edges/second and speedup over the
// single-thread baseline. A per-configuration digest over the full
// EdgeProximity (values, normalized, min/max fields) witnesses the engine's
// bit-identical-across-thread-counts guarantee.
//
// A second table times the persistent cache: cold = parallel compute + save,
// warm = validated load from disk, plus the cold/warm ratio. The warm path
// is what repeated trainer runs and the bench/ sweep family hit.
//
// High-order options are reduced (Katz L=2, PPR 3 iterations) so the bench
// finishes in minutes at 100k nodes: per-source cost, not series depth, is
// what the engine parallelises, so speedups transfer to deeper settings.
//
// Environment knobs:
//   SEPRIV_BENCH_NODES     graph size              (default 100000)
//   SEPRIV_BENCH_DEGREE    BA attachment per node  (default 5)
//   SEPRIV_BENCH_PPR_ITERS PPR power iterations    (default 3)

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "graph/generators.h"
#include "proximity/proximity_engine.h"
#include "util/digest.h"
#include "util/env.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

size_t EnvSize(const char* name, size_t fallback) {
  return sepriv::ParseSizeEnv(name, /*max=*/1000000000, fallback);
}

// Chained FNV-1a over the raw bytes of the whole EdgeProximity: any
// single-bit difference in any value or summary field changes the digest.
uint64_t ProximityDigest(const sepriv::EdgeProximity& ep) {
  uint64_t h = sepriv::FnvDigest(ep.values.data(),
                                 ep.values.size() * sizeof(double));
  h = sepriv::FnvDigest(ep.normalized.data(),
                        ep.normalized.size() * sizeof(double), h);
  h = sepriv::FnvDigest(&ep.min_positive, sizeof(ep.min_positive), h);
  h = sepriv::FnvDigest(&ep.max_value, sizeof(ep.max_value), h);
  return sepriv::FnvDigest(&ep.normalized_min_positive,
                           sizeof(ep.normalized_min_positive), h);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sepriv;

  const size_t nodes = EnvSize("SEPRIV_BENCH_NODES", 100000);
  const size_t degree = EnvSize("SEPRIV_BENCH_DEGREE", 5);
  const int ppr_iters =
      static_cast<int>(EnvSize("SEPRIV_BENCH_PPR_ITERS", 3));

  // sepriv-privflow: allow(leak): public-by-policy: prints aggregate timing/utility metrics of synthetic benchmark graphs
  std::printf("# bench_proximity_scaling\n");
  std::printf("# hardware threads: %zu\n", ThreadPool::ResolveThreads(0));

  WallTimer setup;
  const Graph graph = BarabasiAlbert(nodes, degree, /*seed=*/1);
  std::printf("# graph: BA %s (built in %.2fs)\n", graph.Summary().c_str(),
              setup.ElapsedSeconds());

  ProximityOptions opts;
  opts.katz_max_length = 2;  // see file comment: reduced depth, same sharding
  opts.ppr_iterations = ppr_iters;
  opts.dw_window = 2;
  opts.dw_walks_per_node = 40;

  const std::vector<ProximityKind> kinds = {
      ProximityKind::kKatz,
      ProximityKind::kPersonalizedPageRank,
      ProximityKind::kDeepWalk,
      ProximityKind::kDeepWalkSampled,
  };

  // A fresh, private cache directory per run: it starts empty (a guaranteed
  // cold start), and concurrent runs never delete each other's entries.
  std::string cache_dir = (std::filesystem::temp_directory_path() /
                           "sepriv_bench_prox_cache.XXXXXX")
                              .string();
  if (::mkdtemp(cache_dir.data()) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }

  std::printf("\n== thread scaling (both edge passes, %zu edges) ==\n",
              graph.num_edges());
  std::printf("%-18s %-8s %12s %14s %10s %18s\n", "preference", "threads",
              "time_s", "edges/s", "speedup", "digest");

  bench::BenchJson json("bench_proximity_scaling");
  json.AddMeta("nodes", std::to_string(nodes));
  json.AddMeta("edges", std::to_string(graph.num_edges()));

  std::vector<double> cold_times(kinds.size(), 0.0);
  for (size_t k = 0; k < kinds.size(); ++k) {
    const auto provider = MakeProximity(kinds[k], graph, opts);
    double base_time = 0.0;
    for (size_t threads : {1UL, 2UL, 4UL, 8UL}) {
      WallTimer timer;
      const EdgeProximity ep =
          CachedEdgeProximities(graph, *provider, opts, threads, "");
      const double secs = timer.ElapsedSeconds();
      if (threads == 1) base_time = secs;
      if (threads == 4) cold_times[k] = secs;
      const uint64_t digest = ProximityDigest(ep);
      std::printf("%-18s %-8zu %12.3f %14.0f %9.2fx %18" PRIx64 "\n",
                  ProximityKindName(kinds[k]).c_str(), threads, secs,
                  static_cast<double>(graph.num_edges()) / secs,
                  base_time / secs, digest);
      // sepriv-privflow: allow(leak): public-by-policy: record carries config echoes and aggregate metrics of a synthetic graph
      json.AddRecord(ProximityKindName(kinds[k]) + "/t" +
                         std::to_string(threads),
                     {{"threads", static_cast<double>(threads)},
                      {"time_s", secs},
                      {"edges_per_s",
                       static_cast<double>(graph.num_edges()) / secs},
                      {"speedup", base_time / secs},
                      {"digest_hi", static_cast<double>(digest >> 32)},
                      {"digest_lo",
                       static_cast<double>(digest & 0xffffffffULL)}});
    }
  }
  std::printf("# digests must be identical per preference: the engine is "
              "bit-identical across thread counts\n");

  std::printf("\n== persistent cache (dir: %s) ==\n", cache_dir.c_str());
  std::printf("%-18s %12s %12s %10s %18s\n", "preference", "cold_s",
              "warm_s", "ratio", "digest(warm)");
  const size_t threads = ThreadPool::ResolveThreads(0);
  for (size_t k = 0; k < kinds.size(); ++k) {
    const auto provider = MakeProximity(kinds[k], graph, opts);
    WallTimer cold_timer;
    const EdgeProximity cold =
        CachedEdgeProximities(graph, *provider, opts, threads, cache_dir);
    const double cold_s = cold_timer.ElapsedSeconds();
    WallTimer warm_timer;
    const EdgeProximity warm =
        CachedEdgeProximities(graph, *provider, opts, threads, cache_dir);
    const double warm_s = warm_timer.ElapsedSeconds();
    const bool identical = ProximityDigest(cold) == ProximityDigest(warm);
    std::printf("%-18s %12.3f %12.4f %9.1fx %18" PRIx64 "%s\n",
                ProximityKindName(kinds[k]).c_str(), cold_s, warm_s,
                cold_s / warm_s, ProximityDigest(warm),
                identical ? "" : "  COLD/WARM MISMATCH!");
    json.AddRecord(ProximityKindName(kinds[k]) + "/cache",
                   {{"cold_s", cold_s},
                    {"warm_s", warm_s},
                    {"ratio", cold_s / warm_s},
                    {"cold_warm_identical", identical ? 1.0 : 0.0}});
  }
  std::printf("# warm runs load the validated cache file; cold = parallel "
              "compute + save\n");
  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);
  if (const char* path = bench::JsonPathFromArgs(argc, argv)) {
    // sepriv-privflow: allow(leak): public-by-policy: publishes the aggregate-metric records collected above
    if (json.Write(path)) std::printf("# wrote %s\n", path);
  }
  return 0;
}
