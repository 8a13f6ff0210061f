#include "embedding/sample_store.h"

#include <cstring>
#include <fstream>

#include "util/check.h"
#include "util/digest.h"
#include "util/failpoint.h"

namespace sepriv {
namespace {

constexpr uint64_t kMagic = 0x53455056534D504CULL;  // "SEPVSMPL"
// Version 2: data-page checksums are PageHash values.
constexpr uint64_t kVersion = 2;
constexpr size_t kHeaderWords = 8;
constexpr size_t kHeaderBytes = kHeaderWords * sizeof(uint64_t);
constexpr size_t kDataPageHeaderBytes = sizeof(uint64_t);  // page checksum

// Record field offsets (see the layout comment in the header).
constexpr size_t kOffCenter = 0;
constexpr size_t kOffContext = 4;
constexpr size_t kOffEdgeIndex = 8;
constexpr size_t kOffCount = 12;
constexpr size_t kOffWeight = 16;
constexpr size_t kOffNegatives = 24;

uint64_t LoadWord(const std::byte* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

void StoreWord(std::byte* p, uint64_t w) { std::memcpy(p, &w, sizeof(w)); }

uint32_t LoadU32(const std::byte* p) {
  uint32_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

void StoreU32(std::byte* p, uint32_t w) { std::memcpy(p, &w, sizeof(w)); }

uint64_t PageChecksum(const std::byte* page, size_t page_size) {
  return PageHash(page + kDataPageHeaderBytes,
                  page_size - kDataPageHeaderBytes, kMagic);
}

}  // namespace

size_t SampleRecordBytes(size_t negatives_per_sample) {
  const size_t raw = kOffNegatives + negatives_per_sample * sizeof(uint32_t);
  return (raw + 7) & ~size_t{7};
}

SampleStoreWriter::SampleStoreWriter(std::unique_ptr<PageFile> file, size_t k)
    : file_(std::move(file)),
      k_(k),
      record_bytes_(SampleRecordBytes(k)),
      samples_per_page_(
          (file_->page_size() - kDataPageHeaderBytes) / record_bytes_),
      page_(file_->page_size()) {}

std::unique_ptr<SampleStoreWriter> SampleStoreWriter::Create(
    const std::string& path, size_t negatives_per_sample, size_t page_size) {
  SEPRIV_CHECK(page_size >= kHeaderBytes &&
                   page_size >=
                       kDataPageHeaderBytes +
                           SampleRecordBytes(negatives_per_sample),
               "sample store page too small for one record");
  auto file = PageFile::Create(path, page_size);
  if (!file) return nullptr;
  auto writer = std::unique_ptr<SampleStoreWriter>(
      new SampleStoreWriter(std::move(file), negatives_per_sample));
  // Reserve page 0 now; Finish() fills in the real header. A reader opening
  // an unfinished file sees a zero magic and rejects it.
  size_t index = 0;
  if (!writer->file_->TryAppendPage(writer->page_.data(), &index).ok()) {
    return nullptr;
  }
  return writer;
}

bool SampleStoreWriter::Append(const Subgraph& s, double weight) {
  SEPRIV_CHECK(!finished_, "Append after Finish");
  SEPRIV_CHECK(s.negatives.size() == k_,
               "sample store records carry a fixed negative count");
  if (failed_) return false;

  switch (failpoint::Evaluate("sample_store.append")) {
    case failpoint::Action::kError:
    case failpoint::Action::kTorn:
      failed_ = true;
      status_ = IoError("injected append failure on " + file_->path());
      return false;
    case failpoint::Action::kEnospc:
      failed_ = true;
      status_ = NoSpaceError("injected ENOSPC on " + file_->path());
      return false;
    case failpoint::Action::kCrash:
      failpoint::CrashNow();
    case failpoint::Action::kNone:
      break;
  }

  std::byte* rec = page_.data() + kDataPageHeaderBytes +
                   page_fill_ * record_bytes_;
  std::memset(rec, 0, record_bytes_);
  StoreU32(rec + kOffCenter, s.center);
  StoreU32(rec + kOffContext, s.context);
  StoreU32(rec + kOffEdgeIndex, s.edge_index);
  StoreU32(rec + kOffCount, static_cast<uint32_t>(k_));
  std::memcpy(rec + kOffWeight, &weight, sizeof(weight));
  if (k_ > 0) {
    std::memcpy(rec + kOffNegatives, s.negatives.data(),
                k_ * sizeof(uint32_t));
  }

  ++page_fill_;
  ++num_samples_;
  if (page_fill_ == samples_per_page_) {
    StoreWord(page_.data(), PageChecksum(page_.data(), page_.size()));
    size_t page_index = 0;
    const Status spill = file_->TryAppendPage(page_.data(), &page_index);
    if (!spill.ok()) {
      failed_ = true;
      status_ = spill;
    }
    std::memset(page_.data(), 0, page_.size());
    page_fill_ = 0;
  }
  return !failed_;
}

bool SampleStoreWriter::Finish() {
  SEPRIV_CHECK(!finished_, "double Finish");
  finished_ = true;
  if (failed_) return false;
  if (failpoint::Evaluate("sample_store.finish") != failpoint::Action::kNone) {
    status_ = IoError("injected finish failure on " + file_->path());
    return false;
  }
  if (page_fill_ > 0) {
    StoreWord(page_.data(), PageChecksum(page_.data(), page_.size()));
    size_t page_index = 0;
    const Status spill = file_->TryAppendPage(page_.data(), &page_index);
    if (!spill.ok()) {
      status_ = spill;
      return false;
    }
  }
  std::vector<std::byte> header(file_->page_size());
  StoreWord(header.data() + 0 * sizeof(uint64_t), kMagic);
  StoreWord(header.data() + 1 * sizeof(uint64_t), kVersion);
  StoreWord(header.data() + 2 * sizeof(uint64_t), num_samples_);
  StoreWord(header.data() + 3 * sizeof(uint64_t), k_);
  StoreWord(header.data() + 4 * sizeof(uint64_t), record_bytes_);
  StoreWord(header.data() + 5 * sizeof(uint64_t), samples_per_page_);
  StoreWord(header.data() + 6 * sizeof(uint64_t), file_->page_size());
  StoreWord(header.data() + 7 * sizeof(uint64_t),
            FnvDigest(header.data(), 7 * sizeof(uint64_t)));
  Status publish = file_->TryWritePage(0, header.data());
  if (publish.ok()) publish = file_->TrySync();
  if (!publish.ok()) {
    status_ = publish;
    return false;
  }
  return true;
}

SampleStore::SampleStore(std::unique_ptr<PageFile> file, size_t budget_pages,
                         size_t num_samples, size_t k, size_t record_bytes,
                         size_t samples_per_page, size_t num_data_pages)
    : file_(std::move(file)),
      num_samples_(num_samples),
      k_(k),
      record_bytes_(record_bytes),
      samples_per_page_(samples_per_page),
      num_data_pages_(num_data_pages),
      verified_load_(num_data_pages, 0) {
  if (budget_pages == 0) budget_pages = BufferPool::BudgetFromEnv(4);
  pool_ = std::make_unique<BufferPool>(*file_, budget_pages);
}

std::unique_ptr<SampleStore> SampleStore::Open(const std::string& path,
                                               size_t budget_pages) {
  // Bootstrap: the page size lives in the header, so read the fixed-size
  // header prefix with plain I/O before the PageFile can be opened.
  std::byte raw[kHeaderBytes];
  {
    std::ifstream in(path, std::ios::binary);
    if (!in || !in.read(reinterpret_cast<char*>(raw), sizeof(raw))) {
      return nullptr;
    }
  }
  if (LoadWord(raw + 0 * sizeof(uint64_t)) != kMagic) return nullptr;
  if (LoadWord(raw + 1 * sizeof(uint64_t)) != kVersion) return nullptr;
  if (LoadWord(raw + 7 * sizeof(uint64_t)) !=
      FnvDigest(raw, 7 * sizeof(uint64_t))) {
    return nullptr;
  }
  const uint64_t num_samples = LoadWord(raw + 2 * sizeof(uint64_t));
  const uint64_t k = LoadWord(raw + 3 * sizeof(uint64_t));
  const uint64_t record_bytes = LoadWord(raw + 4 * sizeof(uint64_t));
  const uint64_t samples_per_page = LoadWord(raw + 5 * sizeof(uint64_t));
  const uint64_t page_size = LoadWord(raw + 6 * sizeof(uint64_t));
  if (page_size < kHeaderBytes || record_bytes != SampleRecordBytes(k) ||
      samples_per_page == 0 ||
      samples_per_page !=
          (page_size - kDataPageHeaderBytes) / record_bytes) {
    return nullptr;
  }
  const uint64_t num_data_pages =
      (num_samples + samples_per_page - 1) / samples_per_page;
  auto file = PageFile::Open(path, page_size);
  if (!file) return nullptr;
  if (file->num_pages() != 1 + num_data_pages) return nullptr;
  return std::unique_ptr<SampleStore>(new SampleStore(
      std::move(file), budget_pages, num_samples, k, record_bytes,
      samples_per_page, num_data_pages));
}

Status SampleStore::TryPinShard(size_t s) {
  if (s >= num_data_pages_) {
    return FailedPreconditionError("sample shard out of range");
  }
  if (s == pinned_shard_ && pinned_.valid()) return OkStatus();
  pinned_ = BufferPool::PageHandle();  // release before pinning: frees a frame
  pinned_shard_ = SIZE_MAX;
  // Same recovery discipline as SsdGraphStore::TryPin: a checksum mismatch
  // on the pooled bytes gets a bounded number of drop-and-re-read attempts
  // before it is reported as real on-disk corruption.
  Status last_error;
  for (size_t attempt = 1; attempt <= BufferPool::kMaxIoAttempts; ++attempt) {
    BufferPool::PageHandle h;
    SEPRIV_RETURN_IF_ERROR(pool_->TryPin(1 + s, &h));
    if (verified_load_[s] == h.load_id() ||
        LoadWord(h.data()) == PageChecksum(h.data(), file_->page_size())) {
      verified_load_[s] = h.load_id();
      pinned_ = std::move(h);
      pinned_shard_ = s;
      return OkStatus();
    }
    last_error = CorruptionError("sample store page " + std::to_string(1 + s) +
                                 " in " + file_->path() +
                                 " failed its checksum");
    h = BufferPool::PageHandle();
    pool_->Discard(1 + s);
  }
  return last_error;
}

SampleView SampleStore::Get(uint32_t idx) const {
  SEPRIV_DCHECK(idx < num_samples_);
  SEPRIV_DCHECK(pinned_.valid() && ShardOf(idx) == pinned_shard_);
  const size_t slot = idx - pinned_shard_ * samples_per_page_;
  const std::byte* rec =
      pinned_.data() + kDataPageHeaderBytes + slot * record_bytes_;
  SEPRIV_DCHECK(LoadU32(rec + kOffCount) == k_);
  SampleView view;
  view.center = LoadU32(rec + kOffCenter);
  view.context = LoadU32(rec + kOffContext);
  std::memcpy(&view.weight, rec + kOffWeight, sizeof(view.weight));
  view.negatives = std::span<const NodeId>(
      reinterpret_cast<const NodeId*>(rec + kOffNegatives), k_);
  return view;
}

}  // namespace sepriv
