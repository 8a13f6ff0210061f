// Disk-backed subgraph sample store: the out-of-core form of Algorithm 1's
// pre-collected set GS.
//
// A SampleStoreWriter streams fixed-size records — (center, context,
// edge_index, p_ij weight, k negatives) — into a PageFile as the
// SubgraphGenerator produces them, so GS never has to be resident. The
// matching SampleStore is a SampleSource whose shards are the file's data
// pages, read through a fixed-budget BufferPool: the batch-gradient engine
// pins one page of samples at a time, bounding training's sample memory at
// (pool budget) pages regardless of |E|.
//
// Layout (all little-endian, the only architecture the project targets):
//   page 0        — header words: magic, version (2), num_samples, k,
//                   record_bytes, samples_per_page, page_size, checksum
//                   (FnvDigest of the preceding words).
//   pages 1..P    — data pages: word 0 = PageHash of bytes [8, page_size)
//                   seeded with the magic, then samples_per_page records
//                   back to back (the unused tail stays zero and is
//                   covered too).
//   record        — u32 center, u32 context, u32 edge_index, u32 k,
//                   f64 weight, k × u32 negatives, zero-padded to 8 bytes.
//
// Every data page is checksum-verified once per disk read (keyed by the
// pool's load_id, the same discipline as SsdGraphStore), so repeated pins of
// a resident page cost nothing. PageHash (util/digest.h) verifies a page at
// memory speed. Stores of another version fail Open.

#ifndef SEPRIVGEMB_EMBEDDING_SAMPLE_STORE_H_
#define SEPRIVGEMB_EMBEDDING_SAMPLE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/batch_gradient_engine.h"
#include "embedding/subgraph_sampler.h"
#include "util/buffer_pool.h"
#include "util/page_file.h"

namespace sepriv {

/// Default data-page size: the OS page and an SSD's read unit. A batch is a
/// uniform sample of the store, so it touches about min(B, pages) pages
/// whatever their size, and the bytes read per batch scale with the page
/// size. A B=128 batch of 48-byte records (k = 5) holds 6 KB; from a store
/// of 10^5 records, 4 KiB pages fetch it in ~0.5 MB, and 256 KiB pages (19
/// of them, nearly all touched) in ~4.9 MB. The size is recorded in the
/// header, so stores written with other page sizes stay readable.
inline constexpr size_t kSampleStorePageBytes = size_t{4} * 1024;

/// Bytes of one record for a store with k negatives per sample.
size_t SampleRecordBytes(size_t negatives_per_sample);

/// Sequential writer. Records must all carry exactly `negatives_per_sample`
/// negatives (the SubgraphGenerator guarantees this).
/// Pointer and bool returns, not Status, only because perfbench calls them.
class SampleStoreWriter {
 public:
  /// Creates (truncates) `path`. Returns nullptr on I/O failure; aborts if
  /// `page_size` cannot hold a single record.
  static std::unique_ptr<SampleStoreWriter> Create(
      const std::string& path, size_t negatives_per_sample,
      size_t page_size = kSampleStorePageBytes);

  /// Appends one sample. Returns false on I/O failure (sticky; see
  /// status() for the structured cause — ENOSPC during a spill surfaces as
  /// kNoSpace, which retrying cannot fix). Fault-injection site:
  /// "sample_store.append" (plus the underlying "page_file.write"). Public
  /// sink: the record is a raw (edge, negatives) sample serialized to disk;
  /// only the sanitizer-gated out-of-core trainer (which unlinks the file)
  /// and policy-suppressed test fixtures may write one.
  SEPRIV_PUBLIC_SINK
  bool Append(const Subgraph& s, double weight);

  /// Flushes the tail page, publishes the header, and syncs. The store is
  /// readable only after Finish() returns true. No Appends may follow.
  /// Fault-injection site: "sample_store.finish".
  bool Finish();

  size_t num_samples() const { return num_samples_; }

  /// First failure the writer hit (Ok while healthy). Sticky, like the
  /// boolean results: once a page spill fails the store file is unusable.
  const Status& status() const { return status_; }

 private:
  SampleStoreWriter(std::unique_ptr<PageFile> file, size_t k);

  std::unique_ptr<PageFile> file_;
  size_t k_;
  size_t record_bytes_;
  size_t samples_per_page_;
  std::vector<std::byte> page_;   // current data page being filled
  size_t page_fill_ = 0;          // records in page_
  size_t num_samples_ = 0;
  bool failed_ = false;
  bool finished_ = false;
  Status status_;                 // first failure, for structured reporting
};

/// Read side: a SampleSource over the finished file. One shard per data
/// page; TryPinShard/Get follow the engine's contract (Get is lock-free reads
/// of the pinned frame, safe from concurrent pool workers).
class SampleStore final : public SampleSource {
 public:
  /// Opens `path`, validating the header (magic, version, checksum, record
  /// geometry vs file size). `budget_pages` = 0 resolves SEPRIV_POOL_PAGES
  /// (fallback 4); one page suffices, since the engine pins one page at a
  /// time and nothing is prefetched. Returns nullptr on any validation or
  /// I/O failure.
  /// A pointer, not a Status, only because perfbench calls it.
  static std::unique_ptr<SampleStore> Open(const std::string& path,
                                           size_t budget_pages = 0);

  size_t size() const override { return num_samples_; }
  size_t NegativesCount(uint32_t /*idx*/) const override { return k_; }
  size_t num_shards() const override { return num_data_pages_; }
  size_t ShardOf(uint32_t idx) const override {
    return idx / samples_per_page_;
  }
  /// Recoverable pin: a transient read fault or page-checksum mismatch is
  /// retried with bounded drop-and-re-read (BufferPool::Discard) before the
  /// error surfaces. Leaves no shard pinned on failure.
  Status TryPinShard(size_t s) override;

  SampleView Get(uint32_t idx) const override;

  size_t negatives_per_sample() const { return k_; }
  const BufferPool& pool() const { return *pool_; }

 private:
  SampleStore(std::unique_ptr<PageFile> file, size_t budget_pages,
              size_t num_samples, size_t k, size_t record_bytes,
              size_t samples_per_page, size_t num_data_pages);

  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferPool> pool_;
  size_t num_samples_;
  size_t k_;
  size_t record_bytes_;
  size_t samples_per_page_;
  size_t num_data_pages_;

  BufferPool::PageHandle pinned_;
  size_t pinned_shard_ = SIZE_MAX;
  /// load_id of the last checksum-verified read of each data page; a pin
  /// whose load_id matches skips re-verification (same bytes, proven).
  std::vector<uint64_t> verified_load_;
};

}  // namespace sepriv

#endif  // SEPRIVGEMB_EMBEDDING_SAMPLE_STORE_H_
