#include "util/buffer_pool.h"

#include <algorithm>

#include "util/check.h"

namespace sepriv {

BufferPool::BufferPool(const PageFile& file, size_t budget_pages)
    : file_(file), budget_pages_(std::max<size_t>(1, budget_pages)) {
  frames_.resize(budget_pages_);
  for (Frame& f : frames_) f.buf.resize(file_.page_size());
  page_to_frame_.reserve(budget_pages_);
}

Status BufferPool::TryPin(size_t page, PageHandle* out) {
  *out = PageHandle();
  MutexLock lock(mu_);
  auto it = page_to_frame_.find(page);
  size_t frame = kNoFrame;
  if (it != page_to_frame_.end()) {
    frame = it->second;
    ++stats_.hits;
  } else {
    for (size_t i = 0; i < frames_.size(); ++i) {
      const Frame& f = frames_[i];
      if (f.pins > 0) continue;
      if (f.page == kNoPage) {  // empty frame: take it immediately
        frame = i;
        break;
      }
      if (frame == kNoFrame || f.last_use < frames_[frame].last_use) {
        frame = i;  // LRU among unpinned resident frames
      }
    }
    SEPRIV_CHECK(frame != kNoFrame,
                 "buffer pool over-pinned: all %zu frames hold live pins "
                 "(raise the budget or drop handles before pinning more)",
                 frames_.size());
    Frame& victim = frames_[frame];
    if (victim.page != kNoPage) {
      page_to_frame_.erase(victim.page);
      victim.page = kNoPage;
      ++stats_.evictions;
    }
    ++stats_.misses;
    // Transient faults (plain IO errors) get a bounded number of immediate
    // re-reads; corruption and precondition failures surface at once. A
    // failed read leaves the frame empty.
    Status read_status;
    for (size_t attempt = 1; attempt <= kMaxIoAttempts; ++attempt) {
      read_status = file_.TryReadPage(page, victim.buf.data());
      if (read_status.ok() || !read_status.transient() ||
          attempt == kMaxIoAttempts) {
        break;
      }
      ++stats_.read_retries;
    }
    if (!read_status.ok()) return read_status;
    victim.page = page;
    victim.load_id = ++load_counter_;
    page_to_frame_.emplace(page, frame);
  }
  Frame& f = frames_[frame];
  ++f.pins;
  f.last_use = ++tick_;
  *out = PageHandle(this, frame, f.buf.data(), page, f.load_id);
  return OkStatus();
}

bool BufferPool::Discard(size_t page) {
  MutexLock lock(mu_);
  auto it = page_to_frame_.find(page);
  if (it == page_to_frame_.end()) return false;
  Frame& f = frames_[it->second];
  if (f.pins > 0) return false;
  page_to_frame_.erase(it);
  f.page = kNoPage;
  f.load_id = 0;
  ++stats_.discards;
  return true;
}

void BufferPool::Unpin(size_t frame) {
  MutexLock lock(mu_);
  Frame& f = frames_[frame];
  SEPRIV_CHECK(f.pins > 0, "unpin of an unpinned frame");
  --f.pins;
}

void BufferPool::PageHandle::Release() {
  if (pool_ != nullptr && data_ != nullptr) pool_->Unpin(frame_);
  pool_ = nullptr;
  data_ = nullptr;
}

BufferPoolStats BufferPool::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace sepriv
