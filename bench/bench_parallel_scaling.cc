// The prelude bench: Train()'s Algorithm 1 and model init, and the
// thread scaling of the batch-gradient engine.
//
// Generates a Barabási–Albert graph (100k nodes by default — the scale the
// ROADMAP's "as fast as the hardware allows" target cares about), then
//   * builds GS with SubgraphSampler (Algorithm 1, one serial pass) at k = 5,
//     recording the best of three seconds, subgraphs/s and the digest of
//     every cell of the table (alg1);
//   * builds the SkipGramModel (the jump-ahead parallel fill of W_in/W_out)
//     at 1/2/4/8 linalg threads, recording the best of three seconds and the
//     W_in/W_out digest (init/t*);
//   * runs the full private batch step (per-sample gradients + clipping,
//     sample-order reduction, non-zero Gaussian perturbation, row-parallel
//     apply) at 1/2/4/8 worker threads and reports samples/second plus the
//     speedup over the single-thread baseline, with a digest of the final
//     Win (batch_step/t*);
//   * times ThreadPool's fork/join alone: microseconds per empty
//     ParallelFor, back to back, at 2 and 4 threads (pool/handoff).
// The `digests_identical` record is 1 only if every init digest agrees and
// every batch-step digest agrees: both layers promise bit-identical results
// for every thread count.
//
// Environment knobs:
//   SEPRIV_BENCH_NODES   graph size             (default 100000)
//   SEPRIV_BENCH_DIM     embedding dimension    (default 128)
//   SEPRIV_BENCH_BATCH   batch size             (default 2048)
//   SEPRIV_BENCH_STEPS   timed batch steps      (default 15)
//
// `--json <path>` additionally writes the rows machine-readably
// (bench_json.h) for the perf-trajectory workflow.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_json.h"
#include "core/batch_gradient_engine.h"
#include "embedding/skipgram.h"
#include "embedding/subgraph_sampler.h"
#include "graph/generators.h"
#include "linalg/kernels.h"
#include "linalg/simd/cpu_features.h"
#include "util/digest.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

size_t EnvSize(const char* name, size_t fallback) {
  return sepriv::ParseSizeEnv(name, /*max=*/1000000000, fallback);
}

/// HashMix over every cell of GS, row by row: center, context, negatives.
uint64_t TableDigest(const sepriv::SubgraphTable& table) {
  uint64_t h = 0;
  for (size_t e = 0; e < table.size(); ++e) {
    const sepriv::SubgraphTable::Row row = table[e];
    h = sepriv::HashMix(sepriv::HashMix(h, row.center), row.context);
    for (sepriv::NodeId n : row.negatives) h = sepriv::HashMix(h, n);
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sepriv;

  const size_t nodes = EnvSize("SEPRIV_BENCH_NODES", 100000);
  const size_t dim = EnvSize("SEPRIV_BENCH_DIM", 128);
  const size_t batch_size = EnvSize("SEPRIV_BENCH_BATCH", 2048);
  const size_t steps = EnvSize("SEPRIV_BENCH_STEPS", 15);
  const int negatives = 5;
  const double clip = 2.0;
  const double stddev = clip * 5.0;  // C·σ, the non-zero noise scale
  const double lr = 0.1;

  // sepriv-privflow: allow(leak): public-by-policy: prints aggregate timing/utility metrics of synthetic benchmark graphs
  std::printf("# bench_parallel_scaling\n");
  std::printf("# hardware threads: %zu\n", ThreadPool::ResolveThreads(0));
  std::printf("# graph: BA n=%zu, dim=%zu, k=%d, B=%zu, steps=%zu\n", nodes,
              dim, negatives, batch_size, steps);

  WallTimer setup;
  Graph graph = BarabasiAlbert(nodes, 5, /*seed=*/1);
  std::vector<double> edge_weights(graph.num_edges(), 1.0);
  std::printf("# setup: |E|=%zu in %.2fs\n", graph.num_edges(),
              setup.ElapsedSeconds());

  // Algorithm 1 alone, best of three; the last build is the bench's GS.
  std::optional<SubgraphSampler> gs;
  double alg1_secs = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    gs.reset();
    WallTimer timer;
    gs.emplace(graph, negatives, /*seed=*/2);
    const double t = timer.ElapsedSeconds();
    alg1_secs = rep == 0 ? t : std::min(alg1_secs, t);
  }
  const SubgraphSampler& sampler = *gs;
  const double alg1_rate = static_cast<double>(sampler.size()) / alg1_secs;
  const uint64_t alg1_digest = TableDigest(sampler.All());
  std::printf("# alg1: %zu subgraphs in %.4fs (%.0f/s), digest %016" PRIx64
              "\n",
              sampler.size(), alg1_secs, alg1_rate, alg1_digest);

  // One fixed batch schedule shared by every thread count so the work (and
  // therefore the output checksum) is identical across configurations.
  Rng batch_rng(3);
  std::vector<std::vector<uint32_t>> batches;
  batches.reserve(steps);
  for (size_t i = 0; i < steps; ++i) {
    batches.push_back(sampler.SampleBatch(batch_size, batch_rng));
  }

  bench::BenchJson json("bench_parallel_scaling");
  json.AddMeta("nodes", std::to_string(nodes));
  json.AddMeta("dim", std::to_string(dim));
  json.AddMeta("batch", std::to_string(batch_size));
  json.AddMeta("steps", std::to_string(steps));
  json.AddMeta("hardware_threads",
               std::to_string(ThreadPool::ResolveThreads(0)));
  json.AddMeta("cpu_features", simd::CpuFeatureString());
  json.AddMeta("simd_active", simd::LevelName(simd::ActiveLevel()));
  // sepriv-privflow: allow(leak): public-by-policy: record carries config echoes and aggregate metrics of a synthetic graph
  json.AddRecord("alg1", {{"negatives", static_cast<double>(negatives)},
                          {"time_s", alg1_secs},
                          {"subgraphs_per_s", alg1_rate},
                          {"digest_hi", static_cast<double>(alg1_digest >> 32)},
                          {"digest_lo", static_cast<double>(
                                            alg1_digest & 0xffffffffULL)}});

  std::printf("%-8s %14s %10s %18s\n", "threads", "init_s", "speedup",
              "digest(w_in,w_out)");
  SkipGramModel init_model;
  std::vector<uint64_t> init_digests;
  double base_init = 0.0;
  for (size_t threads : {1UL, 2UL, 4UL, 8UL}) {
    kernels::SetLinalgThreads(threads);
    double secs = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      Rng init_rng(4);
      WallTimer timer;
      SkipGramModel model(graph.num_nodes(), dim, init_rng);
      const double t = timer.ElapsedSeconds();
      secs = rep == 0 ? t : std::min(secs, t);
      init_model = std::move(model);
    }
    if (threads == 1) base_init = secs;
    const uint64_t digest = HashMix(MatrixDigest(init_model.w_in),
                                    MatrixDigest(init_model.w_out));
    init_digests.push_back(digest);
    std::printf("%-8zu %14.4f %9.2fx %18" PRIx64 "\n", threads, secs,
                base_init / secs, digest);
    json.AddRecord("init/t" + std::to_string(threads),
                   {{"threads", static_cast<double>(threads)},
                    {"time_s", secs},
                    {"speedup", base_init / secs},
                    {"digest_hi", static_cast<double>(digest >> 32)},
                    {"digest_lo",
                     static_cast<double>(digest & 0xffffffffULL)}});
  }
  kernels::SetLinalgThreads(0);

  std::printf("%-8s %14s %14s %10s %18s\n", "threads", "time_s",
              "samples/s", "speedup", "digest(w_in)");

  std::vector<uint64_t> step_digests;
  double base_rate = 0.0;
  for (size_t threads : {1UL, 2UL, 4UL, 8UL}) {
    BatchGradientEngineOptions opts;
    opts.num_nodes = graph.num_nodes();
    opts.dim = dim;
    opts.clip_per_sample = true;
    opts.clip_threshold = clip;
    opts.num_threads = threads;
    BatchGradientEngine engine(opts, edge_weights);

    SkipGramModel model = init_model;
    Rng noise_rng(5);

    // Warm-up step: touches the scratch allocations and page-faults the
    // accumulators so the timed region measures steady-state throughput.
    InMemorySampleSource source(sampler.All(), edge_weights);
    double loss = 0.0;
    SEPRIV_CHECK_OK(
        engine.TryAccumulateBatch(model, source, batches[0], &loss));
    // sepriv-privflow: allow(unaccounted-sanitizer): microbenchmark of the primitive; only timings are published, the perturbed buffers are discarded
    engine.PerturbNonZero(stddev, noise_rng);
    engine.ApplyUpdate(model, lr);

    model = init_model;
    noise_rng.Seed(5);
    WallTimer timer;
    for (const auto& batch : batches) {
      SEPRIV_CHECK_OK(engine.TryAccumulateBatch(model, source, batch, &loss));
      engine.PerturbNonZero(stddev, noise_rng);
      engine.ApplyUpdate(model, lr);
    }
    const double secs = timer.ElapsedSeconds();
    const double rate =
        static_cast<double>(steps) * static_cast<double>(batch_size) / secs;
    if (threads == 1) base_rate = rate;
    const uint64_t digest = MatrixDigest(model.w_in);
    step_digests.push_back(digest);
    std::printf("%-8zu %14.3f %14.0f %9.2fx %18" PRIx64 "\n", threads, secs,
                rate, rate / base_rate, digest);
    json.AddRecord("batch_step/t" + std::to_string(threads),
                   {{"threads", static_cast<double>(threads)},
                    {"time_s", secs},
                    {"samples_per_s", rate},
                    {"speedup", rate / base_rate},
                    {"digest_hi", static_cast<double>(digest >> 32)},
                    {"digest_lo",
                     static_cast<double>(digest & 0xffffffffULL)}});
  }

  // Fork/join cost: an empty body over one chunk per thread, so every
  // ParallelFor wakes (or finds spinning) every worker and waits for all of
  // them. Best of three rounds.
  constexpr size_t kHandoffReps = 20000;
  std::vector<std::pair<std::string, double>> handoff;
  for (size_t threads : {2UL, 4UL}) {
    ThreadPool pool(threads);
    const auto empty = [](size_t, size_t) {};
    pool.ParallelFor(threads, 1, empty);  // warm-up: workers started
    double us = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      WallTimer timer;
      for (size_t r = 0; r < kHandoffReps; ++r) {
        pool.ParallelFor(threads, 1, empty);
      }
      const double t = timer.ElapsedSeconds() * 1e6 / kHandoffReps;
      us = rep == 0 ? t : std::min(us, t);
    }
    std::printf("# pool handoff, %zu threads: %.2f us per empty ParallelFor\n",
                threads, us);
    handoff.emplace_back("t" + std::to_string(threads) + "_us", us);
  }
  json.AddRecord("pool/handoff", handoff);

  const auto all_equal = [](const std::vector<uint64_t>& d) {
    return std::equal(d.begin() + 1, d.end(), d.begin());
  };
  const bool identical = all_equal(init_digests) && all_equal(step_digests);
  std::printf("# digests identical across thread counts: %s\n",
              identical ? "yes" : "NO");
  json.AddRecord("digests_identical", {{"value", identical ? 1.0 : 0.0}});
  if (const char* path = bench::JsonPathFromArgs(argc, argv)) {
    // sepriv-privflow: allow(leak): public-by-policy: publishes the aggregate-metric records collected above
    if (json.Write(path)) std::printf("# wrote %s\n", path);
  }
  return identical ? 0 : 1;
}
