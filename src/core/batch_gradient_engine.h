// Parallel batch-gradient engine: the compute substrate of Algorithm 2.
//
// SePrivGEmb::Train() used to compute every per-sample skip-gram gradient,
// clip, and noise draw serially with per-negative heap allocations. This
// engine fans the batch out over a persistent ThreadPool while keeping the
// result BIT-IDENTICAL for every thread count. An entry is one row that a
// sample contributes: its center's w_in row, then its k+1 context rows of
// w_out.
//
//   1. gather        — the batch's samples are copied into preallocated
//      per-sample slots, one source shard at a time; which worker handles a
//      sample never affects its slot;
//   2. touch phase   — every entry's slab slot (core/sparse_row_grad.h) is
//      assigned serially in first-touch sample order, so the slots are
//      independent of scheduling. The entry whose touch created a slot owns
//      that row in phase 3; every other entry (a row repeated in the batch,
//      or one an earlier call touched) joins the repeats list, in sample
//      order;
//   3. gradient      — one fan-out over the batch computes
//      ComputeSgnsGradientInto and the per-sample clipping into a per-worker
//      scratch (no allocation on the hot path), then adds each
//      slot-creating entry's row into its zero slab row and copies each
//      repeated entry's row to its place in the repeats list;
//   4. repeats       — slab rows are partitioned over workers by slot;
//      every worker walks the repeats in sample order and adds only the
//      rows it owns. A slab row thus ends as 0 + g₁ + g₂ + … in sample
//      order, the serial sum, whatever the partition;
//   5. noise phase   — Gaussian perturbation (both the non-zero Eq. 9 and
//      naive Eq. 6 strategies) comes from the counter-based generator
//      kernels::GaussianAccumulate: one master draw keys the call, stream
//      0 is grad_in/w_in and stream 1 grad_out/w_out, and element
//      slot·dim + column of the slab (node·dim + column of the model on
//      the naive path) receives draw Z(key, stream, that index). The noise
//      is a pure function of those coordinates, so it cannot depend on the
//      thread count or on the row blocks the pool schedules.
//
// Fixed grain sizes (never derived from num_threads) make phases 1 and 3
// scheduling-invariant; phase 5 is invariant by construction.
//
// Thread-safety model: the engine holds NO locks of its own — every phase
// partitions its writes by ownership (per-sample slots, per-worker scratch,
// a new slot's row to the entry that created it, per-slot ownership of the
// repeats, per-block noise ranges) and synchronises only through
// ThreadPool::ParallelFor's fork/join barrier, whose handshake
// util/thread_pool.h documents and the TSan suites exercise. A
// TryAccumulateBatch/Perturb*/ApplyUpdate call is NOT reentrant: one engine
// serves one training loop.
//
// Samples reach the engine through the SampleSource interface so the batch
// can live anywhere: the resident SubgraphTable, or a disk-backed store
// paged through the buffer pool (out-of-core training). A sharded
// source is gathered in shard-sorted order within each batch, pinning one
// shard at a time — a group is a few samples when a batch spreads over many
// small pages, so the gather copies small groups inline and leaves the
// parallelism to the gradient fan-out. Every sample lands in its ORIGINAL
// batch slot, so phases 2–4 (and therefore the model) are bit-identical to
// the unsharded in-memory path.

#ifndef SEPRIVGEMB_CORE_BATCH_GRADIENT_ENGINE_H_
#define SEPRIVGEMB_CORE_BATCH_GRADIENT_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/sparse_row_grad.h"
#include "embedding/skipgram.h"
#include "embedding/subgraph_sampler.h"
#include "util/privacy_annotations.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sepriv {

struct BatchGradientEngineOptions {
  size_t num_nodes = 0;
  size_t dim = 0;

  /// Per-sample L2 clipping to clip_threshold (Eq. 3) when true — the
  /// private path. false skips clipping entirely (SE-GEmb counterpart).
  bool clip_per_sample = false;
  double clip_threshold = 0.0;

  NegativeWeighting negative_weighting = NegativeWeighting::kPaperPij;
  double min_weight = 0.0;  // min(P); the kUnifiedMinP negative weight

  /// Worker count, already resolved (>= 1). 1 runs everything inline on the
  /// calling thread.
  size_t num_threads = 1;

  /// The model's storage mode (SePrivGEmbConfig::embedding_storage). Under
  /// kFloat32, ApplyUpdate rounds each row it writes to float32, so a model
  /// that starts float32-exact stays so without a whole-matrix pass.
  EmbeddingStorage storage = EmbeddingStorage::kFloat64;
};

/// One training sample as the gradient phase consumes it: the (center,
/// context, negatives) triple plus its resolved positive weight p_ij. The
/// negatives span points into source-owned storage and is only valid until
/// the source's next TryPinShard call (or destruction). Sensitive: a sample
/// IS a raw edge plus adjacency-derived negatives.
struct SEPRIV_SENSITIVE_SOURCE SampleView {
  NodeId center = 0;
  NodeId context = 0;
  double weight = 0.0;  // p_ij of the sample's edge
  std::span<const NodeId> negatives;
};

/// Where a batch's samples come from. Implementations: the resident
/// SubgraphTable (single shard, Pin is a no-op) and the disk-backed
/// SampleStore (samples paged through a BufferPool).
class SampleSource {
 public:
  virtual ~SampleSource() = default;

  /// Total samples addressable by Get().
  virtual size_t size() const = 0;

  /// Negatives of sample `idx` — callable WITHOUT a pin (the engine sizes
  /// its per-sample scratch slots before any shard is resident).
  virtual size_t NegativesCount(uint32_t idx) const = 0;

  /// Shard geometry. The engine visits a batch grouped by ShardOf and never
  /// holds more than the pinned shard.
  virtual size_t num_shards() const { return 1; }
  virtual size_t ShardOf(uint32_t /*idx*/) const { return 0; }

  /// Makes shard `s` resident; Get() for its samples is valid (and must be
  /// safe to call concurrently from pool workers) until the next
  /// TryPinShard. Disk-backed sources surface IO/corruption as a structured
  /// error (after their own bounded re-read recovery). The default suits a
  /// single-shard resident source, which never fails.
  virtual Status TryPinShard(size_t /*s*/) { return OkStatus(); }

  /// Sample `idx`, which must belong to the currently pinned shard.
  virtual SampleView Get(uint32_t idx) const = 0;
};

/// The resident source: GS as a SubgraphTable + the p_ij table, both
/// indexed by edge. Single shard; Get() is index arithmetic into the
/// table's row.
class InMemorySampleSource final : public SampleSource {
 public:
  /// Row e of `table` is edge e's sample and `edge_weights[e]` its p_ij;
  /// both must outlive the source.
  InMemorySampleSource(const SubgraphTable& table,
                       std::span<const double> edge_weights)
      : table_(table), edge_weights_(edge_weights) {}

  size_t size() const override { return table_.size(); }
  size_t NegativesCount(uint32_t /*idx*/) const override {
    return table_.negatives_per_row();
  }
  SampleView Get(uint32_t idx) const override {
    const SubgraphTable::Row r = table_[idx];
    return {r.center, r.context, edge_weights_[idx], r.negatives};
  }

 private:
  const SubgraphTable& table_;
  std::span<const double> edge_weights_;
};

class BatchGradientEngine {
 public:
  /// Samples carry their p_ij in the SampleView, so nothing reads
  /// `edge_weights`; it stays for source compatibility and may be empty.
  BatchGradientEngine(const BatchGradientEngineOptions& opts,
                      std::span<const double> edge_weights);

  /// Computes the clipped per-sample gradients of `batch` (sample indices
  /// into `source`) in parallel and reduces them in sample order into the
  /// internal accumulators; `*loss` is the summed batch loss (sample order,
  /// so also thread-count invariant). Gathers the batch shard by shard (one
  /// TryPinShard per group of samples sharing a shard) but keeps each
  /// sample in its original batch slot, so the result is bit-identical for
  /// every shard geometry, thread count, and pool budget. A shard pin
  /// failure (after the source's own bounded retries) surfaces as a
  /// structured error with `*loss` untouched and the accumulators left as
  /// they were before the call, so the epoch driver can re-run or abandon
  /// the batch.
  Status TryAccumulateBatch(const SkipGramModel& model, SampleSource& source,
                            std::span<const uint32_t> batch, double* loss);

  /// Ñ(·) of Eq. (9): adds N(0, stddev²) to every touched accumulator row,
  /// generated in row blocks on the pool. Consumes one draw from `rng` as
  /// the key of the epoch's noise. Marks the accumulators dp-sanitized
  /// (stddev > 0); ApplyUpdate forwards the bit to the model.
  SEPRIV_DP_SANITIZER
  void PerturbNonZero(double stddev, Rng& rng);

  /// Eq. (6): dense noise on every row of both model matrices, applied
  /// directly as  w -= lr · N(0, stddev²)  so the accumulators' touched-row
  /// invariant stays intact. Row-block parallel, same keying as
  /// PerturbNonZero. Marks the model matrices dp-sanitized (stddev > 0).
  SEPRIV_DP_SANITIZER
  void PerturbNaiveIntoModel(SkipGramModel& model, double learning_rate,
                             double stddev, Rng& rng);

  /// Applies w -= lr · grad for every touched row of both accumulators,
  /// rounding each written row to float32 under EmbeddingStorage::kFloat32,
  /// then clears them. Row-parallel (rows are disjoint).
  void ApplyUpdate(SkipGramModel& model, double learning_rate);

  size_t num_threads() const { return pool_.num_threads(); }
  const SparseRowGrad& grad_in() const { return grad_in_; }
  const SparseRowGrad& grad_out() const { return grad_out_; }

 private:
  /// Resolves (w_pos, w_neg) from one sample's p_ij under the weighting mode.
  void ResolveWeights(double pij, double& w_pos, double& w_neg) const;

  BatchGradientEngineOptions opts_;
  ThreadPool pool_;

  SparseRowGrad grad_in_;   // ∂L/∂Win accumulator (B touched rows max)
  SparseRowGrad grad_out_;  // ∂L/∂Wout accumulator (B·(k+1) rows max)

  // Per-sample slots, sized on first TryAccumulateBatch and reused. Sample i
  // owns context slab i·ctx_slot_.. of context_nodes_, and entry i of
  // context_counts_, losses_, centers_ and sample_weights_; its entries own
  // places_[i·(ctx_slot_ + 1) ..], the center's first.
  size_t ctx_slot_ = 0;  // max contexts (k+1) per sample in the current batch
  std::vector<NodeId> context_nodes_;
  std::vector<uint32_t> context_counts_;
  std::vector<double> losses_;
  std::vector<NodeId> centers_;   // sample i's center
  std::vector<double> sample_weights_;  // sample i's p_ij
  std::vector<uint32_t> order_;   // shard-sorted visit order of batch slots

  // Phase 2's verdict per entry: the slab slot the entry created, or
  // kRepeated | r when the row already had a slot and the entry is
  // repeats_[r]. Slots stay below num_nodes, and r below the batch's entry
  // count, so neither reaches the flag bit.
  static constexpr uint32_t kRepeated = 1u << 31;
  std::vector<uint32_t> places_;
  struct Repeat {
    uint32_t slot;  // the slab row the entry adds into
    bool out;       // grad_out_ (a context row) rather than grad_in_
  };
  std::vector<Repeat> repeats_;      // this call's repeated entries, in order
  std::vector<double> repeat_rows_;  // repeats_[r]'s clipped row at r·dim
};

}  // namespace sepriv

#endif  // SEPRIVGEMB_CORE_BATCH_GRADIENT_ENGINE_H_
