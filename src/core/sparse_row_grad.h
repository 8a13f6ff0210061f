// Batch-gradient accumulator that stores only the rows a batch touches.
//
// The skip-gram gradient of a batch touches at most B rows of Win and
// B·(k+1) rows of Wout; everything else stays exactly zero (paper Fig. 2(b)).
// The accumulator therefore keeps a compact slab instead of a |V|×cols
// matrix:
//
//   slot_of_  one uint32 per node: the row's slot, or kNoSlot if untouched;
//   touched_  the touched node ids in first-touch order (slot s holds row
//             touched_[s]);
//   slab_     touched·cols doubles, slot s at [s·cols, (s+1)·cols).
//
// Memory is O(|V| + touched·cols). At 10^5 nodes, r=128, B=1024 and k=5
// the engine's two accumulators hold 0.8 MB of slots and at most 7.3 MB of
// slab, where the dense pair held 205 MB. Clearing costs O(touched · cols)
// — one memset of the slab prefix, or none when the caller zeroed each row
// as it consumed it (the engine's apply pass; ReleaseZeroedRows) — and the
// noise of Eq. (9), Ñ(·), reaches only the slab, i.e. only non-zero rows.

#ifndef SEPRIVGEMB_CORE_SPARSE_ROW_GRAD_H_
#define SEPRIVGEMB_CORE_SPARSE_ROW_GRAD_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "linalg/kernels.h"
#include "util/check.h"
#include "util/privacy_annotations.h"

namespace sepriv {

class SEPRIV_SENSITIVE_SOURCE SparseRowGrad {
 public:
  static constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

  SparseRowGrad(size_t rows, size_t cols)
      : cols_(cols), slot_of_(rows, kNoSlot) {}

  /// Row r += values (touches r first).
  void AddToRow(uint32_t r, std::span<const double> values) {
    kernels::Axpy(1.0, values.data(), SlotRow(Touch(r)).data(), cols_);
  }

  /// Returns r's slot, assigning the next one (a zeroed slab row) on first
  /// touch. The batch-gradient engine touches serially, in first-touch
  /// sample order (so slots are independent of worker scheduling), and then
  /// accumulates into SlotRow()s concurrently. Touching may grow the slab,
  /// which invalidates earlier SlotRow() spans.
  uint32_t Touch(uint32_t r) {
    uint32_t& slot = slot_of_[r];
    if (slot == kNoSlot) {
      slot = static_cast<uint32_t>(touched_.size());
      touched_.push_back(r);
      // Growth value-initialises, and every used slot is zero again before
      // Clear() or ReleaseZeroedRows() returns it, so a fresh slot always
      // starts at zero.
      if (slab_.size() < touched_.size() * cols_) {
        slab_.resize(touched_.size() * cols_);
      }
    }
    return slot;
  }

  /// Starts loading r's slot entry ahead of a Touch(r) a few rows later; a
  /// cache hint only, so it cannot change any slot or value.
  void PrefetchSlot(uint32_t r) const { __builtin_prefetch(&slot_of_[r]); }

  /// The accumulated values of slot `s` (row touched()[s]).
  std::span<double> SlotRow(uint32_t s) {
    return {slab_.data() + static_cast<size_t>(s) * cols_, cols_};
  }
  std::span<const double> SlotRow(uint32_t s) const {
    return {slab_.data() + static_cast<size_t>(s) * cols_, cols_};
  }

  /// All touched rows back to back, slot order: touched()·cols doubles.
  std::span<double> slab() { return {slab_.data(), touched_.size() * cols_}; }

  /// Zeroes the used slab prefix and forgets the touched rows; O(touched ·
  /// cols). The next Touch() reuses slot 0.
  void Clear() {
    if (!touched_.empty()) {
      std::memset(slab_.data(), 0, touched_.size() * cols_ * sizeof(double));
    }
    ReleaseZeroedRows();
  }

  /// Clear() for a caller that has already zeroed every used slot row:
  /// forgets the touched rows without touching the slab; O(touched).
  void ReleaseZeroedRows() {
#ifndef NDEBUG
    for (double x : slab()) SEPRIV_DCHECK(x == 0.0);
#endif
    for (uint32_t r : touched_) slot_of_[r] = kNoSlot;
    touched_.clear();
  }

  const std::vector<uint32_t>& touched() const { return touched_; }

  /// Runtime half of the privacy-flow contract (see Matrix::dp_sanitized):
  /// set once the mechanism layer has noised the slab; sticky across
  /// Clear(), like the model's bit.
  void MarkDpSanitized() { dp_sanitized_ = true; }
  bool dp_sanitized() const { return dp_sanitized_; }

 private:
  size_t cols_;
  std::vector<uint32_t> slot_of_;
  std::vector<uint32_t> touched_;
  std::vector<double> slab_;
  bool dp_sanitized_ = false;
};

}  // namespace sepriv

#endif  // SEPRIVGEMB_CORE_SPARSE_ROW_GRAD_H_
