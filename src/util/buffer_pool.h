// Fixed-budget buffer pool over a PageFile: a synchronous LRU page cache.
//
// The pool owns `budget` page-sized frames — the hard memory ceiling of the
// out-of-core layer; it NEVER allocates a frame beyond the budget. TryPin
// pins a page for reading: on a miss it reads the page from disk into the
// least-recently-used unpinned frame, and the handle releases the pin when
// dropped. Unpinned frames stay resident as a cache; eviction considers
// unpinned frames only, so a pinned page can never be stolen mid-read.
//
// Thread-safety: all public methods may be called concurrently; handles may
// be dropped from any thread. A miss reads the page under the pool's latch,
// so concurrent pins of one pool serialise behind that read. No library
// caller pins one pool from two threads: the engine's gather,
// ShardHaloOracle::Load and the shard scans all pin on the calling thread,
// and pool workers only read bytes that are already pinned. The latch
// discipline is machine-checked: mu_ is an annotated Mutex, every guarded
// field is declared SEPRIV_GUARDED_BY(mu_), and clang's -Wthread-safety (a
// CI error) rejects any access outside the latch. Page *contents* are read
// outside the latch through pinned handles — safe because a frame with live
// pins is never evicted or reloaded, and the pin/unpin transitions happen
// under mu_ (establishing the happens-before between a frame's last reader
// and its next load).

#ifndef SEPRIVGEMB_UTIL_BUFFER_POOL_H_
#define SEPRIVGEMB_UTIL_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/mutex.h"
#include "util/page_file.h"
#include "util/status.h"

namespace sepriv {

/// Counters exposed for benches and tests. Snapshot semantics (one lock).
struct BufferPoolStats {
  uint64_t hits = 0;            // TryPin found the page resident
  uint64_t misses = 0;          // TryPin had to read from disk
  uint64_t evictions = 0;       // resident page displaced from its frame
  // Always 0: the pool has no prefetcher. Kept only because perfbench's
  // replica reads them; they go when the replica does.
  uint64_t prefetch_loads = 0;
  uint64_t prefetch_dropped = 0;
  uint64_t read_retries = 0;    // transient read faults absorbed by TryPin
  uint64_t discards = 0;        // pages dropped via Discard (re-read path)
};

class BufferPool {
 public:
  /// `budget_pages` frames of file.page_size() bytes each; clamped to >= 1.
  /// The pool reads through `file`, which must outlive it.
  BufferPool(const PageFile& file, size_t budget_pages);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// RAII pin: keeps the page's frame resident and readable until destroyed.
  class PageHandle {
   public:
    PageHandle() = default;
    PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
    PageHandle& operator=(PageHandle&& other) noexcept {
      Release();
      pool_ = other.pool_;
      frame_ = other.frame_;
      data_ = other.data_;
      page_ = other.page_;
      load_id_ = other.load_id_;
      other.pool_ = nullptr;
      other.data_ = nullptr;
      return *this;
    }
    PageHandle(const PageHandle&) = delete;
    PageHandle& operator=(const PageHandle&) = delete;
    ~PageHandle() { Release(); }

    bool valid() const { return data_ != nullptr; }
    const std::byte* data() const { return data_; }
    size_t page() const { return page_; }

    /// Monotone id of the disk read that filled this frame: two handles with
    /// equal (page, load_id) are provably the same bytes, so a caller that
    /// has validated the page once can skip re-validation until the page is
    /// evicted and re-read. 0 for an invalid handle.
    uint64_t load_id() const { return load_id_; }

   private:
    friend class BufferPool;
    PageHandle(BufferPool* pool, size_t frame, const std::byte* data,
               size_t page, uint64_t load_id)
        : pool_(pool), frame_(frame), data_(data), page_(page),
          load_id_(load_id) {}
    void Release();

    BufferPool* pool_ = nullptr;
    size_t frame_ = 0;
    const std::byte* data_ = nullptr;
    size_t page_ = 0;
    uint64_t load_id_ = 0;
  };

  /// Maximum disk-read attempts a single TryPin absorbs before surfacing
  /// the error. Attempt-count bounded, never wall-clock (sleep-wait is
  /// banned): a fault that persists for kMaxIoAttempts consecutive reads is
  /// not transient.
  static constexpr size_t kMaxIoAttempts = 3;

  /// Pins `page`, reading it from disk if not resident; transient read
  /// faults are retried up to kMaxIoAttempts times (stats().read_retries
  /// counts the absorbed faults). On persistent failure returns the last
  /// read's structured error, leaves `*out` invalid and the frame empty.
  /// Aborts (SEPRIV_CHECK) when every frame is pinned — the pool is
  /// over-pinned, a caller bug.
  Status TryPin(size_t page, PageHandle* out) SEPRIV_EXCLUDES(mu_);

  /// Drops an unpinned resident copy of `page` so the next TryPin re-reads
  /// it from disk. This is the recovery primitive for checksum mismatches
  /// detected ABOVE the pool (the pool cannot know a page's checksum): the
  /// caller drops its handle, Discards the page, and pins again. Returns
  /// false when the page is not resident or still pinned.
  bool Discard(size_t page) SEPRIV_EXCLUDES(mu_);

  size_t budget_pages() const { return budget_pages_; }
  size_t page_size() const { return file_.page_size(); }
  BufferPoolStats stats() const SEPRIV_EXCLUDES(mu_);

  /// The SEPRIV_POOL_PAGES environment variable, `fallback` when unset or
  /// invalid; 0 also resolves to the fallback (the documented auto value).
  static size_t BudgetFromEnv(size_t fallback);

 private:
  static constexpr size_t kNoPage = SIZE_MAX;
  static constexpr size_t kNoFrame = SIZE_MAX;

  struct Frame {
    std::vector<std::byte> buf;
    size_t page = kNoPage;   // kNoPage: the frame is empty
    size_t pins = 0;
    uint64_t last_use = 0;
    uint64_t load_id = 0;    // id of the read that filled the frame
  };

  void Unpin(size_t frame) SEPRIV_EXCLUDES(mu_);

  const PageFile& file_;
  size_t budget_pages_ = 0;  // == frames_.size(); immutable after the ctor

  mutable Mutex mu_;
  // Frame metadata and bytes are written under the latch; the bytes are
  // read outside it via pinned handles — see the header comment for the
  // happens-before argument.
  std::vector<Frame> frames_ SEPRIV_GUARDED_BY(mu_);
  // Iteration-order note: page_to_frame_ is lookup/insert/erase only —
  // nothing ever iterates it, so its unordered order can't leak into
  // results (eviction order is decided by the frames_ LRU scan, which is
  // index-ordered and deterministic).
  std::unordered_map<size_t, size_t> page_to_frame_ SEPRIV_GUARDED_BY(mu_);
  uint64_t tick_ SEPRIV_GUARDED_BY(mu_) = 0;
  uint64_t load_counter_ SEPRIV_GUARDED_BY(mu_) = 0;
  BufferPoolStats stats_ SEPRIV_GUARDED_BY(mu_);
};

}  // namespace sepriv

#endif  // SEPRIVGEMB_UTIL_BUFFER_POOL_H_
