#include "util/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "test_tmpdir.h"
#include "util/mem.h"
#include "util/page_file.h"

namespace sepriv {
namespace {

constexpr size_t kPage = 4096;

class BufferPoolTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    const std::string path = TestTmpDir() + "/pool_" + name;
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return path;
  }

  /// A page file whose page p is filled with byte value (p + 1).
  std::unique_ptr<PageFile> MakeFile(const std::string& path, size_t pages) {
    auto file = PageFile::Create(path, kPage);
    EXPECT_NE(file, nullptr);
    std::vector<std::byte> buf(kPage);
    for (size_t p = 0; p < pages; ++p) {
      std::memset(buf.data(), static_cast<int>(p + 1), kPage);
      size_t index = 0;
      EXPECT_TRUE(file->TryAppendPage(buf.data(), &index).ok());
      EXPECT_EQ(index, p);
    }
    EXPECT_TRUE(file->TrySync().ok());
    return file;
  }

  /// TryPin, expecting success.
  static BufferPool::PageHandle Pin(BufferPool& pool, size_t page) {
    BufferPool::PageHandle h;
    EXPECT_TRUE(pool.TryPin(page, &h).ok()) << "page " << page;
    return h;
  }

  static bool PageIs(const BufferPool::PageHandle& h, size_t p) {
    if (!h.valid()) return false;
    for (size_t i = 0; i < kPage; ++i) {
      if (h.data()[i] != std::byte{static_cast<unsigned char>(p + 1)}) {
        return false;
      }
    }
    return true;
  }
};

TEST_F(BufferPoolTest, PageFileRoundTripAndTruncationDetection) {
  const std::string path = TempPath("roundtrip");
  MakeFile(path, 3);

  auto ro = PageFile::Open(path, kPage);
  ASSERT_NE(ro, nullptr);
  EXPECT_EQ(ro->num_pages(), 3u);
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(ro->TryReadPage(1, buf.data()).ok());
  EXPECT_EQ(buf[0], std::byte{2});
  EXPECT_EQ(ro->TryReadPage(3, buf.data()).code(),
            StatusCode::kFailedPrecondition);  // out of range

  // A torn file (not a whole number of pages) must be rejected at Open.
  std::filesystem::resize_file(path, 2 * kPage + 17);
  EXPECT_EQ(PageFile::Open(path, kPage), nullptr);
}

TEST_F(BufferPoolTest, PinReturnsCorrectBytesAndCountsHits) {
  const std::string path = TempPath("hits");
  auto file = MakeFile(path, 6);
  BufferPool pool(*file, 2);

  for (size_t p = 0; p < 6; ++p) {
    auto h = Pin(pool, p);
    EXPECT_TRUE(PageIs(h, p)) << "page " << p;
  }
  const BufferPoolStats cold = pool.stats();
  EXPECT_EQ(cold.misses, 6u);
  EXPECT_EQ(cold.hits, 0u);

  // The last pinned page is still resident: a re-pin is a hit.
  auto h = Pin(pool, 5);
  EXPECT_TRUE(PageIs(h, 5));
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST_F(BufferPoolTest, BudgetIsAHardCeilingWithLruEviction) {
  const std::string path = TempPath("lru");
  auto file = MakeFile(path, 4);
  BufferPool pool(*file, 2);
  EXPECT_EQ(pool.budget_pages(), 2u);

  {
    auto a = Pin(pool, 0);
    auto b = Pin(pool, 1);
    // Both frames pinned: page 2 has nowhere to go, but dropping a pin
    // frees a frame.
    EXPECT_TRUE(PageIs(a, 0));
    EXPECT_TRUE(PageIs(b, 1));
  }
  auto c = Pin(pool, 2);  // evicts the LRU unpinned page
  EXPECT_TRUE(PageIs(c, 2));
  EXPECT_GE(pool.stats().evictions, 1u);
}

TEST_F(BufferPoolTest, LoadIdChangesAcrossReloadOfSamePage) {
  const std::string path = TempPath("loadid");
  auto file = MakeFile(path, 3);
  BufferPool pool(*file, 1);  // one frame: every distinct page evicts

  uint64_t first_load;
  {
    auto h = Pin(pool, 0);
    ASSERT_TRUE(h.valid());
    first_load = h.load_id();
    EXPECT_NE(first_load, 0u);
    // Same residency => same load id.
    auto h2 = Pin(pool, 0);
    EXPECT_EQ(h2.load_id(), first_load);
  }
  { auto other = Pin(pool, 1); }  // evicts page 0
  auto h3 = Pin(pool, 0);         // re-read from disk
  EXPECT_NE(h3.load_id(), first_load);
}

TEST_F(BufferPoolTest, BudgetFromEnvParsesAndClamps) {
  ::setenv("SEPRIV_POOL_PAGES", "12", 1);
  EXPECT_EQ(BufferPool::BudgetFromEnv(4), 12u);
  ::setenv("SEPRIV_POOL_PAGES", "0", 1);
  EXPECT_EQ(BufferPool::BudgetFromEnv(4), 4u);
  ::unsetenv("SEPRIV_POOL_PAGES");
  EXPECT_EQ(BufferPool::BudgetFromEnv(4), 4u);
}

TEST_F(BufferPoolTest, RssHelpersReportPlausibleValues) {
  // procfs is present on the CI/test platforms; peak >= current > 0, and
  // both helpers must agree with each other's order.
  const size_t current = CurrentRssBytes();
  const size_t peak = PeakRssBytes();
  ASSERT_GT(current, 0u);
  ASSERT_GT(peak, 0u);
  EXPECT_GE(peak, current);
}

}  // namespace
}  // namespace sepriv
