#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace sepriv {
namespace {

TEST(ThreadPoolTest, ResolveThreadsHonoursExplicitValue) {
  EXPECT_EQ(ThreadPool::ResolveThreads(3), 3u);
  EXPECT_EQ(ThreadPool::ResolveThreads(1), 1u);
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1u);  // auto is never zero
}

TEST(ThreadPoolTest, ReportsRequestedThreadCount) {
  EXPECT_EQ(ThreadPool(1).num_threads(), 1u);
  EXPECT_EQ(ThreadPool(4).num_threads(), 4u);
  EXPECT_EQ(ThreadPool(0).num_threads(), 1u);  // clamped
}

TEST(ThreadPoolTest, EveryIndexProcessedExactlyOnce) {
  for (size_t threads : {1UL, 2UL, 4UL, 8UL}) {
    for (size_t n : {0UL, 1UL, 7UL, 64UL, 1000UL}) {
      ThreadPool pool(threads);
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelFor(n, 3, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads
                                     << " threads, n=" << n;
      }
    }
  }
}

TEST(ThreadPoolTest, ChunksRespectGrain) {
  ThreadPool pool(4);
  std::atomic<size_t> max_chunk{0};
  pool.ParallelFor(100, 16, [&](size_t begin, size_t end) {
    const size_t len = end - begin;
    size_t seen = max_chunk.load();
    while (len > seen && !max_chunk.compare_exchange_weak(seen, len)) {
    }
  });
  EXPECT_LE(max_chunk.load(), 16u);
  EXPECT_GT(max_chunk.load(), 0u);
}

TEST(ThreadPoolTest, PerIndexResultsIndependentOfThreadCount) {
  const size_t n = 513;
  std::vector<double> reference(n);
  for (size_t i = 0; i < n; ++i) {
    reference[i] = static_cast<double>(i) * 1.5 + 1.0;
  }
  for (size_t threads : {1UL, 2UL, 5UL}) {
    ThreadPool pool(threads);
    std::vector<double> out(n, 0.0);
    pool.ParallelFor(n, 7, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        out[i] = static_cast<double>(i) * 1.5 + 1.0;
      }
    });
    EXPECT_EQ(out, reference);
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyInvocations) {
  // The pool persists across epochs in training; hammer the handoff path.
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(32, 4, [&](size_t begin, size_t end) {
      total.fetch_add(end - begin);
    });
  }
  EXPECT_EQ(total.load(), 200u * 32u);
}

TEST(ThreadPoolTest, SmallJobRunsInlineOnCaller) {
  // n <= grain must not touch the workers at all (fast path): the body runs
  // on the calling thread.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::thread::id body_thread;
  pool.ParallelFor(4, 8, [&](size_t, size_t) {
    body_thread = std::this_thread::get_id();
  });
  EXPECT_EQ(body_thread, caller);
}

// The handoff polls for ~0.1–0.2 ms after each job and then parks. These
// gaps sit inside and past that window.
void GapInsidePollWindow() {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(20);
  while (std::chrono::steady_clock::now() < until) {
  }
}

void GapPastPollWindow() {
  // sepriv-lint: allow(sleep-wait): the idle gap is what is under test — the workers must exhaust their polls and park
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
}

// Runs one job over [0, n) and checks that every index ran exactly once.
void ExpectEachIndexOnce(ThreadPool& pool, size_t n, size_t grain) {
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, grain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
  }
}

TEST(ThreadPoolTest, HandoffAcrossSpinningAndParkedWorkers) {
  // Jobs back to back, a short gap apart and a long gap apart, in an order
  // that switches between the spinning and the parked path both ways.
  for (size_t threads : {2UL, 4UL}) {
    ThreadPool pool(threads);
    for (size_t round = 0; round < 60; ++round) {
      ExpectEachIndexOnce(pool, 1 + (round * 37) % 300, 1 + round % 5);
      if (round % 3 == 1) GapInsidePollWindow();
      if (round % 3 == 2) GapPastPollWindow();
    }
  }
}

TEST(ThreadPoolTest, NestedPoolInsideABody) {
  // A body may build and use a pool of its own, as RunCells' cells do: the
  // inner pools' handoffs run while the outer workers are busy.
  ThreadPool outer(4);
  const size_t cells = 8, n = 200;
  std::vector<std::atomic<int>> hits(cells * n);
  outer.ParallelFor(cells, 1, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      ThreadPool inner(2);
      for (size_t part = 0; part < 4; ++part) {
        inner.ParallelFor(n / 4, 3, [&](size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) hits[c * n + part * (n / 4) + i]++;
        });
        if (part == 1) GapPastPollWindow();
      }
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, DestroyedWhileWorkersSpinOrPark) {
  for (int round = 0; round < 10; ++round) {
    { ThreadPool never_used(4); }  // workers still in their first polls
    {
      ThreadPool spinning(4);
      ExpectEachIndexOnce(spinning, 64, 2);
    }
    {
      ThreadPool parked(4);
      ExpectEachIndexOnce(parked, 64, 2);
      GapPastPollWindow();
    }
  }
}

}  // namespace
}  // namespace sepriv
