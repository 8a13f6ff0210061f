// The concurrent experiment runner's determinism contract: stable result
// ordering, deterministic per-cell seed derivation, and bit-identical cell
// results for every thread count — including cells that themselves reach
// the parallel training engine and the parallel evaluation layer.

#include "runner/experiment_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "core/se_privgemb.h"
#include "eval/metrics.h"
#include "eval/strucequ.h"
#include "graph/generators.h"
#include "linalg/kernels.h"
#include "proximity/proximity.h"

namespace sepriv {
namespace {

struct LinalgThreadsGuard {
  explicit LinalgThreadsGuard(size_t n) { kernels::SetLinalgThreads(n); }
  ~LinalgThreadsGuard() { kernels::SetLinalgThreads(0); }
};

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

TEST(CellSeedTest, DeterministicAndDistinct) {
  EXPECT_EQ(runner::CellSeed(7, 0), runner::CellSeed(7, 0));
  std::set<uint64_t> seen;
  for (uint64_t base : {0ULL, 1ULL, 99ULL}) {
    for (uint64_t i = 0; i < 64; ++i) seen.insert(runner::CellSeed(base, i));
  }
  EXPECT_EQ(seen.size(), 3u * 64u);  // no collisions across bases/indices
}

TEST(RunGridTest, VisitsEveryCellOnceWithDerivedSeeds) {
  const size_t n = 37;
  std::vector<std::atomic<int>> visits(n);
  for (auto& v : visits) v.store(0);
  std::vector<uint64_t> seeds(n, 0);
  runner::RunGrid(n, /*base_seed=*/5,
                  [&](size_t i, const runner::CellContext& ctx) {
                    ++visits[i];
                    seeds[i] = ctx.seed;
                  });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << i;
    EXPECT_EQ(seeds[i], runner::CellSeed(5, i)) << i;
  }
}

TEST(RunGridTest, EmptyGridIsANoOp) {
  bool called = false;
  runner::RunGrid(0, 1, [&](size_t, const runner::CellContext&) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(RunGridTest, InnerThreadBudgetMatchesGridMode) {
  // Grid at least as wide as the pool -> serial inner engines; narrow grid
  // on a bigger pool -> the pool's threads divided across cells; serial
  // grid (1-thread pool) -> auto policy handed through.
  {
    LinalgThreadsGuard guard(4);
    size_t seen = 99;
    runner::RunGrid(8, 0, [&](size_t i, const runner::CellContext& ctx) {
      if (i == 0) seen = ctx.inner_threads;
    });
    EXPECT_EQ(seen, 1u);
  }
  {
    LinalgThreadsGuard guard(8);
    size_t seen = 99;
    runner::RunGrid(2, 0, [&](size_t i, const runner::CellContext& ctx) {
      if (i == 0) seen = ctx.inner_threads;
    });
    EXPECT_EQ(seen, 4u);  // 8 threads / 2 cells
  }
  {
    LinalgThreadsGuard guard(1);
    size_t seen = 99;
    runner::RunGrid(8, 0, [&](size_t i, const runner::CellContext& ctx) {
      if (i == 0) seen = ctx.inner_threads;
    });
    EXPECT_EQ(seen, 0u);
  }
}

TEST(RunCellsTest, ResultsInInputOrderWithOwnSeeds) {
  std::vector<runner::ExperimentCell> cells;
  for (size_t i = 0; i < 20; ++i) {
    cells.push_back({std::string("c").append(std::to_string(i)), 100 + i,
                     [](const runner::CellContext& ctx) {
                       return static_cast<double>(ctx.seed) * 2.0;
                     }});
  }
  const std::vector<double> got = runner::RunCells(cells);
  ASSERT_EQ(got.size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], static_cast<double>(100 + i) * 2.0) << i;
  }
}

TEST(RunCellsTest, TrainEvalCellsBitIdenticalAcrossThreadCounts) {
  // The real workload shape: every cell trains a small private model on a
  // shared borrowed proximity table and scores it with parallel StrucEqu
  // (which runs serially inside a saturated grid). The per-cell values must
  // be bit-identical for 1/2/4/8 pool threads.
  Graph g = BarabasiAlbert(120, 3, 17);
  const auto provider =
      MakeProximity(ProximityKind::kPreferentialAttachment, g, {});
  const EdgeProximity prox = ComputeEdgeProximities(g, *provider);

  std::vector<runner::ExperimentCell> cells;
  for (size_t c = 0; c < 6; ++c) {
    cells.push_back({"cell" + std::to_string(c), runner::CellSeed(3, c),
                     [&](const runner::CellContext& ctx) {
                       SePrivGEmbConfig cfg;
                       cfg.dim = 8;
                       cfg.batch_size = 16;
                       cfg.max_epochs = 4;
                       cfg.track_loss = false;
                       cfg.seed = ctx.seed;
                       cfg.num_threads = ctx.inner_threads;
                       SePrivGEmb trainer(g, prox, cfg);
                       return StrucEqu(g, trainer.Train().model.w_in);
                     }});
  }

  std::vector<double> want;
  for (size_t threads : kThreadCounts) {
    LinalgThreadsGuard guard(threads);
    const std::vector<double> got = runner::RunCells(cells);
    if (threads == 1) {
      want = got;
      continue;
    }
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_DOUBLE_EQ(got[i], want[i]) << "threads=" << threads
                                        << " cell=" << i;
    }
  }
}

TEST(RepeatCellsTest, MatchesLegacySerialRepeatSchedule) {
  // The benches build their repeat cells with the legacy 1000 + 37·r seeds
  // and summarise RunCells' values; the summary must be bit-identical to
  // the serial loop those grids replaced.
  const auto fn = [](uint64_t seed) {
    return static_cast<double>(seed % 101) / 7.0;
  };
  std::vector<double> serial;
  std::vector<runner::ExperimentCell> cells;
  for (int r = 0; r < 5; ++r) {
    const auto seed = static_cast<uint64_t>(1000 + 37 * r);
    serial.push_back(fn(seed));
    cells.push_back({"repeat/" + std::to_string(r), seed,
                     [&](const runner::CellContext& ctx) {
                       return fn(ctx.seed);
                     }});
  }
  const RunSummary want = Summarize(serial);
  for (size_t threads : kThreadCounts) {
    LinalgThreadsGuard guard(threads);
    const RunSummary got = Summarize(runner::RunCells(cells));
    EXPECT_DOUBLE_EQ(got.mean, want.mean);
    EXPECT_DOUBLE_EQ(got.stddev, want.stddev);
    EXPECT_EQ(got.runs, want.runs);
  }
}

}  // namespace
}  // namespace sepriv
