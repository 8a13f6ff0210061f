// Deterministic concurrent experiment runner.
//
// The bench family's paper-table sweeps execute a grid of INDEPENDENT run
// cells — (config mutation, seed, dataset) triples whose bodies train a
// model and evaluate a metric. Run one after another, the wall clock is the
// SUM of every cell; this runner schedules the cells as coarse tasks over
// the shared thread pool (kernels::ParallelTasks), turning the grid into
// "slowest cell ÷ cores" while keeping the RESULTS bit-identical to the
// serial order for every thread count:
//
//   * every cell writes only its own per-index result slot, so the returned
//     vector is in input order regardless of scheduling;
//   * per-cell seeds are derived deterministically from (base_seed, index)
//     — CellSeed — never from worker ids or timing;
//   * every engine a cell reaches is itself thread-count invariant (batch
//     gradient, proximity, GEMM, parallel eval), so the per-cell value does
//     not depend on how many threads the cell's inner work got.
//
// Nested parallelism is cooperative rather than oversubscribed: while the
// grid holds the shared pool, any parallel kernel or parallel-eval call a
// cell makes falls back to its serial path (kernels::ParallelTasks
// re-entrancy/busy fallback), and the CellContext tells the cell to build
// its own engines single-threaded (inner_threads == 1). A serial grid (one
// pool thread, or a single cell) leaves inner engines on the auto thread
// policy instead — the full machine keeps working either way.

#ifndef SEPRIVGEMB_RUNNER_EXPERIMENT_RUNNER_H_
#define SEPRIVGEMB_RUNNER_EXPERIMENT_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace sepriv::runner {

/// Everything a cell body receives from the scheduler.
struct CellContext {
  /// Deterministic per-cell seed (CellSeed(base_seed, index), or the cell's
  /// own seed for ExperimentCell grids).
  uint64_t seed = 0;

  /// Thread budget for engines the cell constructs (SePrivGEmbConfig::
  /// num_threads and friends): while cells run concurrently this is the
  /// pool's threads divided across the cells (>= 1; exactly 1 once the
  /// grid is at least as wide as the pool), and 0 (= auto policy) when the
  /// grid itself executes serially. Only wall-clock depends on this value
  /// — every engine is thread-count invariant.
  size_t inner_threads = 1;
};

/// Deterministic per-cell seed: splitmix64-derived from (base_seed, index).
/// Stable across platforms and runs; distinct indices give independent
/// streams (the same mixing discipline as Rng::Fork(stream)).
uint64_t CellSeed(uint64_t base_seed, uint64_t index);

/// Generic deterministic fan-out: runs task(i, ctx) for every i in
/// [0, n_cells) over the shared pool, ctx.seed = CellSeed(base_seed, i).
/// Each task must confine its writes to caller-owned per-index slots; under
/// that contract the slot contents are bit-identical for every thread
/// count. Blocks until every cell has run.
void RunGrid(size_t n_cells, uint64_t base_seed,
             const std::function<void(size_t index, const CellContext& ctx)>&
                 task);

/// One scalar-valued run cell of an experiment grid.
struct ExperimentCell {
  std::string label;  // stable identifier for reports/debugging
  uint64_t seed = 0;  // handed to fn via CellContext::seed
  std::function<double(const CellContext&)> fn;
};

/// Runs every cell (concurrently, deterministically) and returns the values
/// in input order.
std::vector<double> RunCells(std::span<const ExperimentCell> cells);

}  // namespace sepriv::runner

#endif  // SEPRIVGEMB_RUNNER_EXPERIMENT_RUNNER_H_
