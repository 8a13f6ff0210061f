// Persistent worker pool with a blocking parallel-for primitive.
//
// Built for the batch-gradient hot path: one pool lives for the whole
// training run, ParallelFor is invoked a few times per epoch, and the
// calling thread always participates so `num_threads == 1` costs nothing
// over a plain loop. Work is dealt in caller-chosen contiguous chunks via an
// atomic cursor, so load balances dynamically while the mapping from index
// to computation stays fixed — callers that write results to per-index slots
// (and reduce in index order afterwards) get bit-identical output for every
// thread count.
//
// Handoff: spin, then park. An epoch forks several times within a few
// milliseconds, so a worker that has just finished a job polls for the next
// one kSpinPolls times, yielding its core between polls (so other processes
// and the pool's own busy threads can run), and only then sleeps on
// work_cv_. The caller likewise polls for the workers' check-in before it
// sleeps on done_cv_. Back-to-back jobs therefore never touch the mutex or
// a condition variable.
//
// Memory-ordering discipline (mu_ guards no data; it only makes the
// park/wake handshakes free of lost wake-ups, and -Wthread-safety under
// clang checks that every Wait holds it):
//   * the job descriptor (body_/n_/grain_, cursor_ and pending_workers_) is
//     written by the caller before it bumps job_seq_, and a worker reads
//     the descriptor only after observing the new job_seq_ (acquire), so
//     the reads happen-after the writes; the descriptor is not written
//     again until every worker has checked in by decrementing
//     pending_workers_ (acq_rel), after its last read;
//   * a worker parks by registering in parked_workers_ and re-reading
//     job_seq_ under mu_; the caller bumps job_seq_ and then reads
//     parked_workers_. Both pairs are sequentially consistent, so either
//     the worker sees the new job or the caller sees the parked worker and
//     notifies under mu_ — which it cannot take until the worker waits;
//   * the caller parks the same way through caller_parked_, and the worker
//     whose check-in drops pending_workers_ to zero notifies done_cv_ under
//     mu_ when it sees the flag set.
#ifndef SEPRIVGEMB_UTIL_THREAD_POOL_H_
#define SEPRIVGEMB_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/env.h"
#include "util/mutex.h"

namespace sepriv {

class ThreadPool {
 public:
  /// Body of one parallel-for chunk: processes indices [begin, end).
  using ChunkFn = std::function<void(size_t begin, size_t end)>;

  /// Resolves a thread-count knob: 0 means "use the hardware", anything else
  /// is taken literally. hardware_concurrency() may itself report 0 on
  /// exotic platforms, hence the final clamp.
  static size_t ResolveThreads(size_t requested) {
    if (requested > 0) return requested;
    return std::max<size_t>(1, std::thread::hardware_concurrency());
  }

  /// The library's auto policy, for a knob left at 0: SEPRIV_NUM_THREADS if
  /// it holds a count in [1, 1024], else ResolveThreads(0). The trainer's
  /// engine (SePrivGEmbConfig::ResolvedThreads) and the shared linalg pool
  /// both resolve through here, the one reader of that variable.
  static size_t ResolveAutoThreads() {
    constexpr size_t kMaxThreads = 1024;
    return ResolveThreads(ParseSizeEnv("SEPRIV_NUM_THREADS", kMaxThreads,
                                       /*fallback=*/0,
                                       /*zero_means_fallback=*/true));
  }

  explicit ThreadPool(size_t num_threads) {
    num_threads = std::max<size_t>(1, num_threads);
    workers_.reserve(num_threads - 1);  // the calling thread is worker 0
    for (size_t t = 0; t + 1 < num_threads; ++t) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      MutexLock lock(mu_);  // a parked worker re-reads stop_ under mu_
      stop_.store(true, std::memory_order_release);
    }
    work_cv_.NotifyAll();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size() + 1; }

  /// Runs `body` over [0, n) split into chunks of at most `grain` indices;
  /// blocks until every index has been processed. `body` must be safe to
  /// call concurrently on disjoint ranges. Only one ParallelFor may be in
  /// flight at a time (nested calls would deadlock).
  void ParallelFor(size_t n, size_t grain, const ChunkFn& body)
      SEPRIV_EXCLUDES(mu_) {
    if (n == 0) return;
    grain = std::max<size_t>(1, grain);
    if (workers_.empty() || n <= grain) {
      body(0, n);
      return;
    }
    body_ = &body;
    n_ = n;
    grain_ = grain;
    cursor_.store(0, std::memory_order_relaxed);
    pending_workers_.store(workers_.size(), std::memory_order_relaxed);
    job_seq_.fetch_add(1, std::memory_order_seq_cst);  // publishes the job
    if (parked_workers_.load(std::memory_order_seq_cst) != 0) {
      MutexLock lock(mu_);
      work_cv_.NotifyAll();
    }
    RunChunks(&body, n, grain);
    for (int poll = 0; poll < kSpinPolls; ++poll) {
      if (pending_workers_.load(std::memory_order_acquire) == 0) return;
      std::this_thread::yield();
    }
    MutexLock lock(mu_);
    caller_parked_.store(true, std::memory_order_seq_cst);
    while (pending_workers_.load(std::memory_order_seq_cst) != 0) {
      done_cv_.Wait(mu_);
    }
    caller_parked_.store(false, std::memory_order_relaxed);
  }

 private:
  // Polls of the job counter (or of the check-in count) before a thread
  // parks on a condition variable. With a yield between polls this is about
  // 0.1–0.2 ms on an idle core: longer than the gaps between an epoch's
  // forks, and short enough that an idle pool soon stops taking CPU.
  static constexpr int kSpinPolls = 200;

  /// Drains the shared cursor for one job. The descriptor is passed by value
  /// so the hot loop reads only the cursor.
  void RunChunks(const ChunkFn* body, size_t n, size_t grain) {
    size_t begin;
    while ((begin = cursor_.fetch_add(grain, std::memory_order_relaxed)) < n) {
      (*body)(begin, std::min(n, begin + grain));
    }
  }

  /// Waits for a job newer than `seen`: polls, then parks. Returns the new
  /// job's number, or `seen` on shutdown.
  uint64_t AwaitJob(uint64_t seen) SEPRIV_EXCLUDES(mu_) {
    for (int poll = 0; poll < kSpinPolls; ++poll) {
      const uint64_t job = job_seq_.load(std::memory_order_acquire);
      if (job != seen) return job;
      if (stop_.load(std::memory_order_acquire)) return seen;
      std::this_thread::yield();
    }
    MutexLock lock(mu_);
    parked_workers_.fetch_add(1, std::memory_order_seq_cst);
    uint64_t job;
    while ((job = job_seq_.load(std::memory_order_seq_cst)) == seen &&
           !stop_.load(std::memory_order_acquire)) {
      work_cv_.Wait(mu_);
    }
    parked_workers_.fetch_sub(1, std::memory_order_relaxed);
    return job;
  }

  void WorkerLoop() SEPRIV_EXCLUDES(mu_) {
    uint64_t seen_job = 0;
    for (;;) {
      const uint64_t job = AwaitJob(seen_job);
      if (job == seen_job) return;  // shutdown
      seen_job = job;
      RunChunks(body_, n_, grain_);
      if (pending_workers_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
          caller_parked_.load(std::memory_order_seq_cst)) {
        MutexLock lock(mu_);
        done_cv_.NotifyAll();
      }
    }
  }

  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar work_cv_;  // new job or shutdown, for parked workers
  CondVar done_cv_;  // every worker checked in, for a parked caller
  std::atomic<bool> stop_{false};
  // Bumped once per ParallelFor; each worker joins a given job exactly once.
  std::atomic<uint64_t> job_seq_{0};
  std::atomic<size_t> pending_workers_{0};  // not yet checked in
  std::atomic<size_t> parked_workers_{0};   // waiting on work_cv_
  std::atomic<bool> caller_parked_{false};  // caller waiting on done_cv_

  // Current job descriptor, published by job_seq_ (see the header comment).
  const ChunkFn* body_ = nullptr;
  size_t n_ = 0;
  size_t grain_ = 1;
  std::atomic<size_t> cursor_{0};
};

}  // namespace sepriv

#endif  // SEPRIVGEMB_UTIL_THREAD_POOL_H_
