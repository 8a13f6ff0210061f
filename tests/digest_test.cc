#include "util/digest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace sepriv {
namespace {

/// Deterministic, library-independent test bytes (a multiplicative hash of
/// the index), so the known answers below depend on PageHash alone.
std::vector<unsigned char> TestBytes(size_t len) {
  std::vector<unsigned char> bytes(len);
  for (size_t i = 0; i < len; ++i) {
    bytes[i] = static_cast<unsigned char>((i * 0x9E3779B1u) >> 24);
  }
  return bytes;
}

void StoreWordAt(std::vector<unsigned char>& bytes, size_t word, uint64_t w) {
  std::memcpy(bytes.data() + word * sizeof(w), &w, sizeof(w));
}

// PageHash values are part of the shard and sample-store on-disk formats.
// If one of these changes, the formats' version constants must change with
// it (graph/shard.cc kFormatVersion, embedding/sample_store.cc kVersion), or
// files written by the old code would be misread as corrupt pages.
TEST(PageHashTest, KnownAnswers) {
  constexpr uint64_t kSeed = 0x5345505653484452ULL;
  struct Case {
    size_t len;
    uint64_t seed;
    uint64_t expect;
  };
  const Case cases[] = {
      {0, 0, 0xb69ccbec15628728ULL},
      {1, 0, 0xcabf317331f73258ULL},
      {7, 0, 0x4af9f6b7a9573fcbULL},
      {31, 0, 0x5a17ef4fc2cc9b1cULL},
      {32, 0, 0xed55e201f917026aULL},
      {33, 0, 0x75fc0cc1e4396b79ULL},
      {4096, 0, 0xa4e5a630f9a26c74ULL},
      {262136, 0, 0x39f9abc5ca74dc77ULL},
      {0, kSeed, 0xef112f5337723a8eULL},
      {1, kSeed, 0x811f53ef51ec9d7bULL},
      {7, kSeed, 0x9d5d8de3546b10dcULL},
      {31, kSeed, 0x69f16b8890b56ca1ULL},
      {32, kSeed, 0x0df1907e667140c7ULL},
      {33, kSeed, 0xeb0f54deaf6cfe22ULL},
      {4096, kSeed, 0x6185be95bb761d47ULL},
      {262136, kSeed, 0xfbff5791b89d48f1ULL},
  };
  const std::vector<unsigned char> bytes = TestBytes(262136);
  for (const Case& c : cases) {
    EXPECT_EQ(PageHash(bytes.data(), c.len, c.seed), c.expect)
        << "len " << c.len << " seed " << c.seed;
  }
}

TEST(PageHashTest, EverySingleBitFlipOfAPageChangesTheHash) {
  std::vector<unsigned char> bytes = TestBytes(4096);
  const uint64_t base = PageHash(bytes.data(), bytes.size(), 7);
  std::vector<uint64_t> flipped;
  flipped.reserve(bytes.size() * 8);
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] ^= static_cast<unsigned char>(1u << bit);
      flipped.push_back(PageHash(bytes.data(), bytes.size(), 7));
      bytes[i] ^= static_cast<unsigned char>(1u << bit);
    }
  }
  EXPECT_EQ(std::count(flipped.begin(), flipped.end(), base), 0);
  // Not required by the guarantee, but a weak mix would show up here: all
  // 32768 single-bit neighbours hash to distinct values.
  std::sort(flipped.begin(), flipped.end());
  EXPECT_EQ(std::adjacent_find(flipped.begin(), flipped.end()),
            flipped.end());
}

TEST(PageHashTest, EverySingleBitFlipOfAPartialLastWordChangesTheHash) {
  for (size_t tail = 1; tail < 32; ++tail) {
    std::vector<unsigned char> bytes = TestBytes(4096 + tail);
    const uint64_t base = PageHash(bytes.data(), bytes.size(), 5);
    for (size_t i = 4096; i < bytes.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        bytes[i] ^= static_cast<unsigned char>(1u << bit);
        EXPECT_NE(PageHash(bytes.data(), bytes.size(), 5), base)
            << "tail " << tail << " byte " << i << " bit " << bit;
        bytes[i] ^= static_cast<unsigned char>(1u << bit);
      }
    }
  }
}

TEST(PageHashTest, SwappingTwoWordsChangesTheHash) {
  // Word i feeds lane i % 4: words 1 and 5 share a lane, 1 and 2 do not.
  // The last pair swaps a block word with a tail word.
  std::vector<unsigned char> bytes = TestBytes(4096 + 24);
  const size_t words = bytes.size() / sizeof(uint64_t);
  for (size_t w = 0; w < words; ++w) {
    StoreWordAt(bytes, w, 0x0123456789abcdefULL * (w + 1));
  }
  const uint64_t base = PageHash(bytes.data(), bytes.size(), 0);
  const std::pair<size_t, size_t> swaps[] = {
      {1, 5}, {0, 508}, {1, 2}, {3, 4}, {7, words - 1}};
  for (const auto& [a, b] : swaps) {
    std::vector<unsigned char> swapped = bytes;
    std::swap_ranges(swapped.begin() + a * 8, swapped.begin() + a * 8 + 8,
                     swapped.begin() + b * 8);
    EXPECT_NE(PageHash(swapped.data(), swapped.size(), 0), base)
        << "words " << a << " and " << b;
  }
}

TEST(PageHashTest, TailLengthsOverAFixedPrefixAreDistinct) {
  // Both with data in the tail and with zero bytes, which the last word's
  // zero padding must not alias: the length is folded into the hash.
  std::vector<unsigned char> data = TestBytes(4096 + 40);
  std::vector<unsigned char> zeros = data;
  std::fill(zeros.begin() + 4096, zeros.end(), 0);
  for (const auto* bytes : {&data, &zeros}) {
    std::vector<uint64_t> hashes;
    for (size_t tail = 0; tail <= 40; ++tail) {
      hashes.push_back(PageHash(bytes->data(), 4096 + tail, 3));
    }
    std::sort(hashes.begin(), hashes.end());
    EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end());
  }
}

TEST(PageHashTest, IndependentOfAlignmentAndSeedSensitive) {
  const std::vector<unsigned char> bytes = TestBytes(1000);
  const uint64_t base = PageHash(bytes.data(), bytes.size(), 11);
  std::vector<unsigned char> shifted(bytes.size() + 8);
  for (size_t offset = 1; offset < 8; ++offset) {
    std::copy(bytes.begin(), bytes.end(), shifted.begin() + offset);
    EXPECT_EQ(PageHash(shifted.data() + offset, bytes.size(), 11), base)
        << "offset " << offset;
  }
  EXPECT_NE(PageHash(bytes.data(), bytes.size(), 12), base);
}

}  // namespace
}  // namespace sepriv
