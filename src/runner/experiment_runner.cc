#include "runner/experiment_runner.h"

#include <algorithm>

#include "linalg/kernels.h"
#include "util/rng.h"

namespace sepriv::runner {

// Thread-safety model: the runner owns no locks — each cell writes only its
// own result slot (out[i]), and cross-cell synchronisation is exactly the
// ParallelTasks fork/join barrier (linalg/kernels.cc), whose latch is
// machine-checked by -Wthread-safety via util/mutex.h and whose pool
// handshake util/thread_pool.h documents. Cell
// bodies must not share mutable state; everything they need arrives in the
// per-cell CellContext.

uint64_t CellSeed(uint64_t base_seed, uint64_t index) {
  // Two chained splitmix64 steps over (base, index): a single step keyed
  // only by base ^ index would alias (base, index) pairs with equal xor.
  uint64_t h = HashMix(0x5eedce11u ^ base_seed, index + 1);
  return HashMix(h, base_seed);
}

void RunGrid(size_t n_cells, uint64_t base_seed,
             const std::function<void(size_t index, const CellContext& ctx)>&
                 task) {
  if (n_cells == 0) return;
  // Inner-engine thread budget: the pool's threads divided across the
  // cells, so a grid wider than the machine runs single-threaded engines
  // (anything else oversubscribes) while a narrow grid on a big machine
  // still feeds every core (e.g. 4 cells on 16 threads -> 4-thread
  // engines). A serial grid hands the auto policy (0) through so a lone
  // cell uses the whole machine. The choice only steers wall-clock — every
  // engine is thread-count invariant, so the slot contents cannot depend
  // on it.
  const size_t pool_threads = kernels::LinalgThreads();
  const bool concurrent = n_cells > 1 && pool_threads > 1;
  const size_t inner_threads =
      concurrent ? std::max<size_t>(1, pool_threads / n_cells) : 0;
  kernels::ParallelTasks(n_cells, [&](size_t i) {
    CellContext ctx;
    ctx.seed = CellSeed(base_seed, i);
    ctx.inner_threads = inner_threads;
    task(i, ctx);
  });
}

std::vector<double> RunCells(std::span<const ExperimentCell> cells) {
  std::vector<double> out(cells.size(), 0.0);
  RunGrid(cells.size(), /*base_seed=*/0,
          [&](size_t i, const CellContext& ctx) {
            CellContext cell_ctx = ctx;
            cell_ctx.seed = cells[i].seed;  // the cell's own seed wins
            out[i] = cells[i].fn(cell_ctx);
          });
  return out;
}

}  // namespace sepriv::runner
