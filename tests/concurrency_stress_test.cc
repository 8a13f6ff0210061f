// Concurrency regression suite: multi-threaded stress over every
// lock-guarded component, written to be run under ThreadSanitizer (the CI
// tsan job executes this file with real contention). Each test encodes an
// interleaving the single-threaded suites never produce:
//
//   - BufferPool: racing Pin/Prefetch/Release across threads, shutdown with
//     a saturated prefetch queue (the prefetch-thread ordering hazard), and
//     pin-while-prefetching of the SAME page (duplicate-read suppression)
//   - ThreadPool: rapid construct/ParallelFor/destruct churn (worker
//     startup/shutdown handshake) and back-to-back jobs (job_id handoff)
//   - kernels::ParallelTasks: concurrent callers (try_lock serial fallback)
//     racing SetLinalgThreads pool rebuilds
//
// Determinism note: the checks assert *invariants* (byte contents, counter
// conservation, sum correctness), never schedules — the tests pass for any
// interleaving; TSan is what fails them if an interleaving races.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "linalg/kernels.h"
#include "test_tmpdir.h"
#include "util/buffer_pool.h"
#include "util/page_file.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sepriv {
namespace {

constexpr size_t kPage = 512;  // small pages: more traffic per second

class ConcurrencyStressTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    const std::string path = TestTmpDir() + "/stress_" + name;
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return path;
  }

  /// A page file whose page p is filled with byte value (p % 251).
  std::unique_ptr<PageFile> MakeFile(const std::string& path, size_t pages) {
    auto file = PageFile::Create(path, kPage);
    EXPECT_NE(file, nullptr);
    std::vector<std::byte> buf(kPage);
    for (size_t p = 0; p < pages; ++p) {
      std::memset(buf.data(), static_cast<int>(p % 251), kPage);
      EXPECT_EQ(file->AppendPage(buf.data()), p);
    }
    EXPECT_TRUE(file->Sync());
    return file;
  }

  static bool PageIs(const BufferPool::PageHandle& h, size_t p) {
    if (!h.valid()) return false;
    const auto want = std::byte{static_cast<unsigned char>(p % 251)};
    for (size_t i = 0; i < kPage; i += 61) {
      if (h.data()[i] != want) return false;
    }
    return h.data()[kPage - 1] == want;
  }
};

TEST_F(ConcurrencyStressTest, BufferPoolConcurrentPinPrefetchRelease) {
  const std::string path = TempPath("pin_race");
  const size_t kPages = 64;
  auto file = MakeFile(path, kPages);
  BufferPool pool(*file, /*budget_pages=*/8);

  const size_t kThreads = 4;
  const size_t kItersPerThread = 400;
  std::atomic<size_t> bad_pages{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xace0fba5eULL + t);  // per-thread stream, seeded by slot
      for (size_t i = 0; i < kItersPerThread; ++i) {
        const size_t page = rng.UniformInt(kPages);
        pool.Prefetch(rng.UniformInt(kPages));  // hint some other page
        BufferPool::PageHandle h = pool.Pin(page);
        if (!PageIs(h, page)) bad_pages.fetch_add(1);
        if ((i & 7) == 0) {
          // Hold two pins at once (budget 8 >= 2 * threads = 8 pins max).
          BufferPool::PageHandle h2 = pool.Pin(rng.UniformInt(kPages));
          if (!h2.valid()) bad_pages.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(bad_pages.load(), 0u);
  const BufferPoolStats stats = pool.stats();
  // Conservation: every Pin is exactly one hit or one miss. The second pin
  // fires when (i & 7) == 0, i.e. kItersPerThread / 8 times per thread.
  const uint64_t pins = kThreads * kItersPerThread +
                        kThreads * (kItersPerThread / 8);
  EXPECT_EQ(stats.hits + stats.misses, pins);
}

TEST_F(ConcurrencyStressTest, BufferPoolShutdownWithQueuedPrefetches) {
  const std::string path = TempPath("shutdown");
  const size_t kPages = 32;
  auto file = MakeFile(path, kPages);
  // Repeatedly: queue a prefetch storm, then destroy the pool immediately.
  // The destructor must drain/abandon the queue without touching freed
  // frames — the prefetch-thread shutdown-ordering hazard TSan watches.
  for (size_t round = 0; round < 20; ++round) {
    BufferPool pool(*file, /*budget_pages=*/4);
    for (size_t p = 0; p < kPages; ++p) pool.Prefetch(p);
    if (round % 2 == 0) {
      BufferPool::PageHandle h = pool.Pin(round % kPages);
      EXPECT_TRUE(PageIs(h, round % kPages));
    }
    // pool destroyed here with hints still queued
  }
}

TEST_F(ConcurrencyStressTest, BufferPoolPinOfPageBeingPrefetched) {
  const std::string path = TempPath("dup_read");
  const size_t kPages = 16;
  auto file = MakeFile(path, kPages);
  BufferPool pool(*file, /*budget_pages=*/4);
  // Hammer the prefetcher and pin the same pages from two threads: Pin must
  // wait for the in-flight load instead of double-reading into the frame.
  std::atomic<size_t> bad_pages{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(31 + t);
      for (size_t i = 0; i < 300; ++i) {
        const size_t page = rng.UniformInt(kPages);
        pool.Prefetch(page);
        BufferPool::PageHandle h = pool.Pin(page);
        if (!PageIs(h, page)) bad_pages.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad_pages.load(), 0u);
}

TEST_F(ConcurrencyStressTest, ThreadPoolChurnAndBackToBackJobs) {
  // Construct/use/destroy cycles exercise the worker startup and shutdown
  // handshakes; back-to-back ParallelFor calls exercise the job_id wakeup.
  for (size_t round = 0; round < 30; ++round) {
    ThreadPool pool(1 + round % 4);
    std::atomic<uint64_t> sum{0};
    const size_t n = 1000;
    for (size_t job = 0; job < 4; ++job) {
      pool.ParallelFor(n, /*grain=*/64, [&](size_t begin, size_t end) {
        uint64_t local = 0;
        for (size_t i = begin; i < end; ++i) local += i + 1;
        sum.fetch_add(local, std::memory_order_relaxed);
      });
    }
    EXPECT_EQ(sum.load(), 4u * (n * (n + 1) / 2));
  }
}

TEST_F(ConcurrencyStressTest, ParallelTasksConcurrentCallersAndResize) {
  // Two external threads issue ParallelTasks storms (the loser of the
  // try_lock falls back to serial — same results) while a third resizes the
  // shared pool. Each task writes only its own slot, so every outcome must
  // be the exact same vector.
  const size_t kTasks = 64;
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      std::vector<uint64_t> out(kTasks, 0);
      for (size_t iter = 0; iter < 50; ++iter) {
        for (auto& v : out) v = 0;
        kernels::ParallelTasks(kTasks, [&](size_t i) {
          out[i] = (i + 1) * (i + 1);
        });
        for (size_t i = 0; i < kTasks; ++i) {
          if (out[i] != (i + 1) * (i + 1)) wrong.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (size_t s = 0; s < 20; ++s) kernels::SetLinalgThreads(1 + s % 4);
  });
  for (auto& th : threads) th.join();
  kernels::SetLinalgThreads(0);  // restore the auto policy for other suites
  EXPECT_EQ(wrong.load(), 0u);
}

}  // namespace
}  // namespace sepriv
