// Thread-scaling benchmark for the parallel evaluation layer and the
// concurrent experiment runner.
//
// Three sections, each at 1/2/4/8 pool threads (kernels::SetLinalgThreads):
//
//   * exact StrucEqu     — all-pairs metric on a Barabási–Albert graph;
//                          reports pairs/s and the FNV digest of the value;
//   * sampled StrucEqu   — the shard-keyed sampled estimator at a fixed
//                          pair budget; same reporting;
//   * experiment runner  — a grid of independent train+eval cells
//                          (runner::RunCells); reports cells/s and the
//                          digest of the concatenated per-cell results.
//
// The digests must be identical across every thread count — the witness of
// the evaluation layer's and runner's determinism contracts (README
// "Evaluation & experiment runner").
//
// Environment knobs:
//   SEPRIV_BENCH_EVAL_NODES   exact-metric graph size      (default 4096)
//   SEPRIV_BENCH_EVAL_DIM     embedding dimension          (default 64)
//   SEPRIV_BENCH_EVAL_PAIRS   sampled-path pair budget     (default 2000000)
//   SEPRIV_BENCH_EVAL_CELLS   runner grid size             (default 16)
//   SEPRIV_BENCH_EVAL_REPS    timed repetitions/section    (default 3)
//
// `--json <path>` writes the rows machine-readably (bench_json.h); the CI
// bench-smoke job asserts the eval/digests_identical record and uploads the
// JSON artifact (BENCH_eval.json is the committed reference for manual
// cross-PR comparison).

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "core/se_privgemb.h"
#include "eval/strucequ.h"
#include "graph/generators.h"
#include "linalg/kernels.h"
#include "linalg/simd/cpu_features.h"
#include "proximity/proximity.h"
#include "runner/experiment_runner.h"
#include "util/digest.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

size_t EnvSize(const char* name, size_t fallback) {
  return sepriv::ParseSizeEnv(name, /*max=*/1000000000, fallback);
}

uint64_t ValueDigest(const double* data, size_t n) {
  return sepriv::FnvDigest(data, n * sizeof(double));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sepriv;

  const size_t nodes = EnvSize("SEPRIV_BENCH_EVAL_NODES", 4096);
  const size_t dim = EnvSize("SEPRIV_BENCH_EVAL_DIM", 64);
  const size_t sampled_pairs = EnvSize("SEPRIV_BENCH_EVAL_PAIRS", 2000000);
  const size_t grid_cells = EnvSize("SEPRIV_BENCH_EVAL_CELLS", 16);
  const size_t reps = EnvSize("SEPRIV_BENCH_EVAL_REPS", 3);

  // sepriv-privflow: allow(leak): public-by-policy: prints aggregate timing/utility metrics of synthetic benchmark graphs
  std::printf("# bench_eval_scaling\n");
  std::printf("# hardware threads: %zu\n", ThreadPool::ResolveThreads(0));
  std::printf("# graph: BA n=%zu m=5, dim=%zu; sampled pairs=%zu; grid=%zu "
              "cells\n",
              nodes, dim, sampled_pairs, grid_cells);

  Graph graph = BarabasiAlbert(nodes, 5, /*seed=*/1);
  Rng emb_rng(2);
  Matrix embedding(graph.num_nodes(), dim);
  embedding.FillGaussian(emb_rng);
  const size_t total_pairs = nodes * (nodes - 1) / 2;

  bench::BenchJson json("bench_eval_scaling");
  json.AddMeta("hardware_threads",
               std::to_string(ThreadPool::ResolveThreads(0)));
  json.AddMeta("nodes", std::to_string(nodes));
  json.AddMeta("dim", std::to_string(dim));
  json.AddMeta("sampled_pairs", std::to_string(sampled_pairs));
  json.AddMeta("grid_cells", std::to_string(grid_cells));
  json.AddMeta("cpu_features", simd::CpuFeatureString());
  json.AddMeta("simd_active", simd::LevelName(simd::ActiveLevel()));

  bool all_digests_match = true;

  // --- StrucEqu, exact and sampled paths. ---------------------------------
  struct EvalSection {
    const char* name;
    size_t pairs_per_call;
    StrucEquOptions opts;
  };
  StrucEquOptions exact_opts;
  exact_opts.max_pairs = total_pairs;  // force the all-pairs path
  StrucEquOptions sampled_opts;
  sampled_opts.max_pairs = sampled_pairs;
  sampled_opts.seed = 99;
  const EvalSection sections[] = {
      {"strucequ_exact", total_pairs, exact_opts},
      {"strucequ_sampled", sampled_pairs, sampled_opts},
  };

  for (const EvalSection& sec : sections) {
    if (sec.name == std::string("strucequ_sampled") &&
        total_pairs <= sampled_pairs) {
      std::printf("\n# %s skipped: pair budget %zu >= total pairs %zu "
                  "(sampled path unreachable)\n",
                  sec.name, sampled_pairs, total_pairs);
      continue;
    }
    std::printf("\n%-10s %14s %14s %10s %18s   (%s)\n", "threads", "time_s",
                "pairs/s", "speedup", "digest", sec.name);
    double base_rate = 0.0;
    uint64_t want_digest = 0;
    bool digests_match = true;
    for (size_t threads : {1UL, 2UL, 4UL, 8UL}) {
      kernels::SetLinalgThreads(threads);
      double value = StrucEqu(graph, embedding, sec.opts);  // warm-up
      WallTimer timer;
      for (size_t r = 0; r < reps; ++r) {
        value = StrucEqu(graph, embedding, sec.opts);
      }
      const double secs = timer.ElapsedSeconds() / static_cast<double>(reps);
      const double rate = static_cast<double>(sec.pairs_per_call) / secs;
      const uint64_t digest = ValueDigest(&value, 1);
      if (threads == 1) {
        base_rate = rate;
        want_digest = digest;
      }
      digests_match = digests_match && digest == want_digest;
      std::printf("%-10zu %14.3f %14.0f %9.2fx %18" PRIx64 "\n", threads,
                  secs, rate, rate / base_rate, digest);
      // sepriv-privflow: allow(leak): public-by-policy: record carries config echoes and aggregate metrics of a synthetic graph
      json.AddRecord(std::string(sec.name) + "/t" + std::to_string(threads),
                     {{"threads", static_cast<double>(threads)},
                      {"time_s", secs},
                      {"pairs_per_s", rate},
                      {"speedup", rate / base_rate},
                      {"digest_hi", static_cast<double>(digest >> 32)},
                      {"digest_lo",
                       static_cast<double>(digest & 0xffffffffULL)}});
    }
    std::printf("# %s digests %s across thread counts\n", sec.name,
                digests_match ? "identical" : "DIVERGED (BUG)");
    all_digests_match = all_digests_match && digests_match;
  }

  // --- Experiment runner: independent train+eval cells. -------------------
  {
    Graph cell_graph = BarabasiAlbert(2000, 5, /*seed=*/3);
    const auto provider =
        MakeProximity(ProximityKind::kPreferentialAttachment, cell_graph, {});
    const EdgeProximity prox =
        ComputeEdgeProximities(cell_graph, *provider);

    std::vector<runner::ExperimentCell> cells;
    cells.reserve(grid_cells);
    for (size_t c = 0; c < grid_cells; ++c) {
      cells.push_back(
          {"cell/" + std::to_string(c), runner::CellSeed(7, c),
           [&, c](const runner::CellContext& ctx) {
             SePrivGEmbConfig cfg;
             cfg.dim = 16;
             cfg.batch_size = 64;
             cfg.max_epochs = 10;
             cfg.track_loss = false;
             cfg.seed = ctx.seed;
             // Pin inner engines to one thread at EVERY outer count (a
             // serial grid would otherwise hand them the auto policy), so
             // the cells/s column isolates outer grid scaling.
             cfg.num_threads = ctx.inner_threads == 0 ? 1 : ctx.inner_threads;
             SePrivGEmb trainer(cell_graph, prox, cfg);  // borrowed table
             StrucEquOptions se;
             se.max_pairs = 20000;  // sampled path inside a saturated grid
             return StrucEqu(cell_graph, trainer.Train().model.w_in, se);
           }});
    }

    std::printf("\n%-10s %14s %14s %10s %18s   (experiment_runner)\n",
                "threads", "time_s", "cells/s", "speedup", "digest");
    double base_rate = 0.0;
    uint64_t want_digest = 0;
    bool digests_match = true;
    for (size_t threads : {1UL, 2UL, 4UL, 8UL}) {
      kernels::SetLinalgThreads(threads);
      std::vector<double> results = runner::RunCells(cells);  // warm-up
      WallTimer timer;
      for (size_t r = 0; r < reps; ++r) {
        results = runner::RunCells(cells);
      }
      const double secs = timer.ElapsedSeconds() / static_cast<double>(reps);
      const double rate = static_cast<double>(grid_cells) / secs;
      const uint64_t digest = ValueDigest(results.data(), results.size());
      if (threads == 1) {
        base_rate = rate;
        want_digest = digest;
      }
      digests_match = digests_match && digest == want_digest;
      std::printf("%-10zu %14.3f %14.2f %9.2fx %18" PRIx64 "\n", threads,
                  secs, rate, rate / base_rate, digest);
      json.AddRecord("runner_cells/t" + std::to_string(threads),
                     {{"threads", static_cast<double>(threads)},
                      {"time_s", secs},
                      {"cells_per_s", rate},
                      {"speedup", rate / base_rate},
                      {"digest_hi", static_cast<double>(digest >> 32)},
                      {"digest_lo",
                       static_cast<double>(digest & 0xffffffffULL)}});
    }
    std::printf("# runner digests %s across thread counts\n",
                digests_match ? "identical" : "DIVERGED (BUG)");
    all_digests_match = all_digests_match && digests_match;
  }

  kernels::SetLinalgThreads(0);
  std::printf("\n# all sections: digests %s\n",
              all_digests_match ? "identical" : "DIVERGED (BUG)");
  json.AddRecord("eval/digests_identical",
                 {{"value", all_digests_match ? 1.0 : 0.0}});
  if (const char* path = bench::JsonPathFromArgs(argc, argv)) {
    // sepriv-privflow: allow(leak): public-by-policy: publishes the aggregate-metric records collected above
    if (json.Write(path)) std::printf("# wrote %s\n", path);
  }
  return all_digests_match ? 0 : 1;
}
