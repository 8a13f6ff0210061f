#include "linalg/kernels.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "linalg/simd/dispatch.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sepriv::kernels {
namespace {

// --- Bulk Gaussian -----------------------------------------------------------

constexpr double kTwoPi = 6.283185307179586476925286766559;

// Draws one Box–Muller pair (cos, sin) from rng. Matches the uniform
// consumption of Rng::Normal exactly: reject u1 == 0, then one u2 draw.
inline void BoxMullerPair(Rng& rng, double& c, double& s) {
  double u1 = rng.Uniform();
  while (u1 <= 0.0) u1 = rng.Uniform();
  const double u2 = rng.Uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = kTwoPi * u2;
  c = radius * std::cos(theta);
  s = radius * std::sin(theta);
}

// --- GEMM blocking -----------------------------------------------------------

// Output tile: kTileRows x kTileCols doubles of C (128 KiB) plus the
// streamed B panel (kGemmTileDepth x kTileCols = 256 KiB) fit in L2; the A
// strip (kTileRows x kGemmTileDepth) re-used across the j loop sits in L1.
// The in-tile micro-kernels live in linalg/simd/kernels_*.cc (per dispatch
// level); the depth block size is part of the shared accumulation contract
// (simd::kGemmTileDepth).
constexpr size_t kTileRows = 64;
constexpr size_t kTileCols = 256;

// Below this many multiply-adds a parallel dispatch costs more than it saves;
// the serial path walks the identical tile loops, so results cannot differ.
constexpr size_t kParallelFlopFloor = size_t{1} << 18;

size_t CeilDiv(size_t a, size_t b) { return (a + b - 1) / b; }

// --- Shared pool -------------------------------------------------------------

struct LinalgPool {
  Mutex mu;  // serializes pool use and resizing
  // Built lazily at the resolved size; guarded so -Wthread-safety proves
  // the lazy init is raced by nobody (the init was a TSan/TSA blind spot
  // before the annotation pass).
  std::unique_ptr<ThreadPool> pool SEPRIV_GUARDED_BY(mu);
  size_t requested SEPRIV_GUARDED_BY(mu) = 0;  // 0 = auto policy
  // Thread count published for lock-free reads: LinalgThreads() must be
  // callable from inside a running task, where mu is held by the
  // dispatching thread for the whole ParallelFor. Set whenever the pool is
  // (re)built or an explicit request arrives; 0 = not resolved yet.
  std::atomic<size_t> resolved{0};
};

LinalgPool& PoolState() {
  // Function-local static: built on first parallel kernel, workers joined by
  // the ThreadPool destructor at exit (keeps LeakSanitizer clean).
  static LinalgPool state;
  return state;
}

// True while the current thread is executing inside a parallel kernel; any
// nested kernel call then runs serially instead of deadlocking the pool.
thread_local bool tls_in_parallel = false;

}  // namespace

size_t LinalgThreads() {
  LinalgPool& st = PoolState();
  // Lock-free fast path: any pool that could be running tasks right now has
  // already published its size (before its first ParallelFor), so callers
  // inside a task never touch the mutex — no deadlock, no recursive lock.
  const size_t cached = st.resolved.load(std::memory_order_acquire);
  if (cached > 0) return cached;
  MutexLock lock(st.mu);
  if (st.pool) return st.pool->num_threads();
  return st.requested > 0 ? st.requested : ThreadPool::ResolveAutoThreads();
}

void SetLinalgThreads(size_t n) {
  LinalgPool& st = PoolState();
  MutexLock lock(st.mu);
  st.requested = n;
  st.pool.reset();  // rebuilt lazily at the new size
  st.resolved.store(n, std::memory_order_release);  // 0 = re-resolve lazily
}

void ParallelTasks(size_t n_tasks, const std::function<void(size_t)>& task) {
  if (n_tasks == 0) return;
  LinalgPool& st = PoolState();
  // Serial fallback: nested call, single task, or pool busy in another
  // thread. Each task owns its outputs, so serial and parallel execution
  // produce bit-identical results.
  if (tls_in_parallel || n_tasks == 1 || !st.mu.TryLock()) {
    for (size_t t = 0; t < n_tasks; ++t) task(t);
    return;
  }
  MutexLock lock(st.mu, kAdoptLock);
  if (!st.pool) {
    const size_t threads =
        st.requested > 0 ? st.requested : ThreadPool::ResolveAutoThreads();
    st.pool = std::make_unique<ThreadPool>(threads);
    st.resolved.store(st.pool->num_threads(), std::memory_order_release);
  }
  if (st.pool->num_threads() == 1) {
    // st.mu is held for this inline loop, so mark the thread as inside a
    // parallel region: a nested ParallelTasks must short-circuit on
    // tls_in_parallel rather than try_lock a mutex this thread already
    // owns (undefined behavior for std::mutex).
    const bool prev = tls_in_parallel;
    tls_in_parallel = true;
    for (size_t t = 0; t < n_tasks; ++t) task(t);
    tls_in_parallel = prev;
    return;
  }
  st.pool->ParallelFor(n_tasks, 1, [&task](size_t begin, size_t end) {
    const bool prev = tls_in_parallel;
    tls_in_parallel = true;
    for (size_t t = begin; t < end; ++t) task(t);
    tls_in_parallel = prev;
  });
}

// --- Bulk Gaussian -----------------------------------------------------------

void FillGaussian(Rng& rng, double* dst, size_t n, double mean,
                  double stddev) {
  size_t i = 0;
  double c, s;
  // Drain a pending cached value and produce any odd tail via Normal() (which
  // caches its sin), so the fill consumes and leaves the engine exactly as
  // the scalar loop would — only the branch-free bulk middle differs.
  if (n > 0 && rng.TakeCachedNormal(c)) dst[i++] = mean + stddev * c;
  for (; i + 2 <= n; i += 2) {
    BoxMullerPair(rng, c, s);
    dst[i] = mean + stddev * c;
    dst[i + 1] = mean + stddev * s;
  }
  if (i < n) dst[i] = rng.Normal(mean, stddev);
}

void AccumulateGaussian(Rng& rng, double* dst, size_t n, double stddev) {
  size_t i = 0;
  double c, s;
  if (n > 0 && rng.TakeCachedNormal(c)) dst[i++] += stddev * c;
  for (; i + 2 <= n; i += 2) {
    BoxMullerPair(rng, c, s);
    dst[i] += stddev * c;
    dst[i + 1] += stddev * s;
  }
  if (i < n) dst[i] += stddev * rng.Normal();
}

// --- GEMM entry points -------------------------------------------------------

void Gemm(const double* a, const double* b, double* c, size_t m, size_t k,
          size_t n) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::fill(c, c + m * n, 0.0);
    return;
  }
  const size_t row_blocks = CeilDiv(m, kTileRows);
  const size_t col_blocks = CeilDiv(n, kTileCols);
  // Resolve the dispatch level once per call, outside the task lambda, so
  // every tile of one GEMM runs the same micro-kernel even if a test thread
  // flips the level mid-flight.
  const simd::KernelTable& kt = simd::ActiveKernels();
  const auto tile = [&, gemm_tile = kt.gemm_tile](size_t t) {
    const size_t ib = t / col_blocks;
    const size_t jb = t % col_blocks;
    const size_t i0 = ib * kTileRows;
    const size_t j0 = jb * kTileCols;
    gemm_tile(a, b, c, k, n, i0, std::min(m, i0 + kTileRows), j0,
              std::min(n, j0 + kTileCols));
  };
  const size_t tiles = row_blocks * col_blocks;
  if (m * n * k < kParallelFlopFloor) {
    for (size_t t = 0; t < tiles; ++t) tile(t);
  } else {
    ParallelTasks(tiles, tile);
  }
}

void GemmTN(const double* a, const double* b, double* c, size_t k, size_t m,
            size_t n) {
  // Transpose A once (O(k·m) moves vs O(k·m·n) FLOPs) so the main loop is
  // the one blocked kernel; keeps exactly one accumulation shape.
  std::vector<double> at(m * k);
  for (size_t r = 0; r < k; ++r) {
    const double* arow = a + r * m;
    for (size_t ccol = 0; ccol < m; ++ccol) at[ccol * k + r] = arow[ccol];
  }
  Gemm(at.data(), b, c, m, k, n);
}

void GemmNT(const double* a, const double* b, double* c, size_t m, size_t k,
            size_t n) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::fill(c, c + m * n, 0.0);
    return;
  }
  const size_t row_blocks = CeilDiv(m, kTileRows);
  const size_t col_blocks = CeilDiv(n, kTileCols);
  const simd::KernelTable& kt = simd::ActiveKernels();
  const auto tile = [&, gemm_nt_tile = kt.gemm_nt_tile](size_t t) {
    const size_t ib = t / col_blocks;
    const size_t jb = t % col_blocks;
    const size_t i0 = ib * kTileRows;
    const size_t j0 = jb * kTileCols;
    gemm_nt_tile(a, b, c, k, n, i0, std::min(m, i0 + kTileRows), j0,
                 std::min(n, j0 + kTileCols));
  };
  const size_t tiles = row_blocks * col_blocks;
  if (m * n * k < kParallelFlopFloor) {
    for (size_t t = 0; t < tiles; ++t) tile(t);
  } else {
    ParallelTasks(tiles, tile);
  }
}

}  // namespace sepriv::kernels
