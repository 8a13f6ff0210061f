// Byte digests, two of them with two different jobs.
//
// FnvDigest (FNV-1a) is the determinism witness: the value the determinism
// contracts are checked with. Benches print it per thread count, tests
// compare it, and every committed model digest is one; any single-bit
// difference in the digested bytes (including two rows swapping their noise
// draws) changes it, so matching values really do witness bit-identical
// output. It also seals the sample store's header page, the shard manifest
// and checkpoints. One shared implementation so the committed bench
// baselines and the test assertions can never drift apart.
//
// PageHash is the page-integrity hash: the checksum of every shard page,
// sample-store data page and proximity-cache file, and the shard fingerprint
// the store cross-checks against its manifest on each fresh page load.
// FNV-1a is byte-serial (one multiply on the critical path per byte);
// PageHash runs four independent word lanes and verifies a page at memory
// speed. Its value is part of the on-disk formats: changing it means bumping
// their versions.

#ifndef SEPRIVGEMB_UTIL_DIGEST_H_
#define SEPRIVGEMB_UTIL_DIGEST_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "linalg/matrix.h"
#include "util/rng.h"

namespace sepriv {

/// FNV-1a offset basis; pass the previous digest as `h` to chain buffers.
inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ULL;

/// FNV-1a over `len` raw bytes, continuing from `h`.
inline uint64_t FnvDigest(const void* data, size_t len,
                          uint64_t h = kFnvOffsetBasis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Digest of a matrix's full value buffer.
inline uint64_t MatrixDigest(const Matrix& m) {
  return FnvDigest(m.data(), m.size() * sizeof(double));
}

static_assert(std::endian::native == std::endian::little,
              "PageHash reads little-endian words");

/// Page-integrity hash of `len` bytes under `seed`; pass a previous result
/// as `seed` to chain buffers. The bytes are read as little-endian 8-byte
/// words (the last one zero-padded) that go round-robin to four independent
/// 64-bit lanes, word i to lane i % 4, each step
/// `lane = xorshift((lane ^ word) * odd)`. For a fixed word that step is a
/// bijection of the lane, and for a fixed lane a bijection of the word, so a
/// change confined to one aligned 8-byte word always changes the result. The
/// length and the lanes are folded with HashMix, so zero padding never
/// aliases a longer buffer. Any other change carries 64-bit collision odds.
/// No alignment requirement on `data`.
inline uint64_t PageHash(const void* data, size_t len, uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const auto word = [bytes](size_t i) {
    uint64_t w;
    std::memcpy(&w, bytes + i, sizeof(w));
    return w;
  };
  const auto step = [](uint64_t lane, uint64_t w) {
    lane = (lane ^ w) * 0x9fb21c651e98df25ULL;
    return lane ^ (lane >> 29);
  };
  uint64_t state = seed;
  uint64_t lanes[4];
  for (uint64_t& lane : lanes) lane = SplitMix64(state);
  size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    lanes[0] = step(lanes[0], word(i));
    lanes[1] = step(lanes[1], word(i + 8));
    lanes[2] = step(lanes[2], word(i + 16));
    lanes[3] = step(lanes[3], word(i + 24));
  }
  for (size_t lane = 0; i < len; i += 8, ++lane) {
    uint64_t w = 0;
    std::memcpy(&w, bytes + i, std::min<size_t>(8, len - i));
    lanes[lane] = step(lanes[lane], w);
  }
  uint64_t h = HashMix(seed, len);
  for (uint64_t lane : lanes) h = HashMix(h, lane);
  return h;
}

}  // namespace sepriv

#endif  // SEPRIVGEMB_UTIL_DIGEST_H_
