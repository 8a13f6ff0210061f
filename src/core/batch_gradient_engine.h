// Parallel batch-gradient engine: the compute substrate of Algorithm 2.
//
// SePrivGEmb::Train() used to compute every per-sample skip-gram gradient,
// clip, and noise draw serially with per-negative heap allocations. This
// engine fans the batch out over a persistent ThreadPool while keeping the
// result BIT-IDENTICAL for every thread count:
//
//   1. gather, then gradient — the batch's samples are first copied into
//      preallocated per-sample slots, one source shard at a time; then one
//      fan-out over the whole batch computes ComputeSgnsGradient + per-sample
//      clipping in those slots (no allocation on the hot path); which worker
//      handles a sample never affects its slot;
//   2. touch phase   — the touched-row lists, and with them each row's
//      slab slot (core/sparse_row_grad.h), are built serially in
//      first-touch sample order, so they are independent of scheduling;
//   3. reduce phase  — slab rows are partitioned over workers by slot;
//      every worker walks the batch in sample order and adds only the rows
//      it owns, so each row receives its floating-point additions in
//      exactly the serial order regardless of the partition;
//   4. noise phase   — Gaussian perturbation (both the non-zero Eq. 9 and
//      naive Eq. 6 strategies) comes from the counter-based generator
//      kernels::GaussianAccumulate: one master draw keys the call, stream
//      0 is grad_in/w_in and stream 1 grad_out/w_out, and element
//      slot·dim + column of the slab (node·dim + column of the model on
//      the naive path) receives draw Z(key, stream, that index). The noise
//      is a pure function of those coordinates, so it cannot depend on the
//      thread count or on the row blocks the pool schedules.
//
// Fixed grain sizes (never derived from num_threads) make phase 1
// scheduling-invariant; phase 4 is invariant by construction.
//
// Thread-safety model: the engine holds NO locks of its own — every phase
// partitions its writes by ownership (per-sample scratch slots, per-slot
// reduction ownership, per-block noise ranges) and synchronises only
// through ThreadPool::ParallelFor's fork/join barrier, whose internal
// discipline is machine-checked via the annotated Mutex (util/mutex.h,
// -Wthread-safety under clang). An AccumulateBatch/Perturb*/ApplyUpdate
// call is NOT reentrant: one engine serves one training loop.
//
// Samples reach the engine through the SampleSource interface so the batch
// can live anywhere: the classic in-memory Subgraph vector, or a disk-backed
// store paged through the buffer pool (out-of-core training). A sharded
// source is gathered in shard-sorted order within each batch, pinning one
// shard at a time — a group is a few samples when a batch spreads over many
// small pages, so the gather copies small groups inline and leaves the
// parallelism to the gradient fan-out. Every sample lands in its ORIGINAL
// batch slot, so the gradients and phases 2–3 (and therefore the model) are
// bit-identical to the unsharded in-memory path.

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

/// Where a batch's samples come from. Implementations: the in-memory
/// Subgraph vector (single shard, Pin is a no-op) and the disk-backed
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

/// The classic source: a resident Subgraph vector + p_ij table. Single
/// shard; Get() is pure indexing.
class InMemorySampleSource final : public SampleSource {
 public:
  /// `edge_weights` is indexed by Subgraph::edge_index; both spans must
  /// outlive the source.
  InMemorySampleSource(std::span<const Subgraph> subgraphs,
                       std::span<const double> edge_weights)
      : subgraphs_(subgraphs), edge_weights_(edge_weights) {}

  size_t size() const override { return subgraphs_.size(); }
  size_t NegativesCount(uint32_t idx) const override {
    return subgraphs_[idx].negatives.size();
  }
  SampleView Get(uint32_t idx) const override {
    const Subgraph& s = subgraphs_[idx];
    return {s.center, s.context, edge_weights_[s.edge_index], s.negatives};
  }

 private:
  std::span<const Subgraph> subgraphs_;
  std::span<const double> edge_weights_;
};

class BatchGradientEngine {
 public:
  /// `edge_weights` are the per-edge preferences p_ij (indexed by
  /// Subgraph::edge_index); the span must outlive the engine. Only the
  /// Subgraph-span AccumulateBatch overload reads it — SampleSource batches
  /// carry their weights in the SampleView — so a source-driven caller may
  /// pass an empty span.
  BatchGradientEngine(const BatchGradientEngineOptions& opts,
                      std::span<const double> edge_weights);

  /// Computes the clipped per-sample gradients of `batch` (indices into
  /// `subgraphs`) in parallel and reduces them in sample order into the
  /// internal accumulators. Returns the summed batch loss (sample order, so
  /// also thread-count invariant).
  double AccumulateBatch(const SkipGramModel& model,
                         std::span<const Subgraph> subgraphs,
                         std::span<const uint32_t> batch);

  /// Source-driven form: `batch` holds sample indices into `source`. Gathers
  /// the batch shard-by-shard (one TryPinShard per group of samples sharing a
  /// shard) but keeps each sample in its original batch slot, so the
  /// accumulated result — and the returned sample-order loss — is
  /// bit-identical to the in-memory overload for every shard geometry,
  /// thread count, and pool budget. Aborts if the source's storage fails.
  double AccumulateBatch(const SkipGramModel& model, SampleSource& source,
                         std::span<const uint32_t> batch);

  /// Recoverable form of the source-driven overload: a shard pin failure
  /// (after the source's own bounded retries) surfaces as a structured error
  /// with `*loss` untouched and the accumulators left as they were before
  /// the call, so the epoch driver can re-run or abandon the batch.
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
  /// then clears them. Row-parallel (rows are disjoint).
  void ApplyUpdate(SkipGramModel& model, double learning_rate);

  size_t num_threads() const { return pool_.num_threads(); }
  const SparseRowGrad& grad_in() const { return grad_in_; }
  const SparseRowGrad& grad_out() const { return grad_out_; }

 private:
  /// Resolves (w_pos, w_neg) from one sample's p_ij under the weighting mode.
  void ResolveWeights(double pij, double& w_pos, double& w_neg) const;

  BatchGradientEngineOptions opts_;
  std::span<const double> edge_weights_;
  ThreadPool pool_;

  SparseRowGrad grad_in_;   // ∂L/∂Win accumulator (B touched rows max)
  SparseRowGrad grad_out_;  // ∂L/∂Wout accumulator (B·(k+1) rows max)

  // Per-sample scratch, sized on first AccumulateBatch and reused. Sample i
  // owns center_grads_[i·dim ..), context slab i·ctx_slot_.. of
  // context_nodes_/context_grads_, losses_[i], context_counts_[i].
  size_t ctx_slot_ = 0;  // max contexts (k+1) per sample in the current batch
  std::vector<double> center_grads_;
  std::vector<double> context_grads_;
  std::vector<NodeId> context_nodes_;
  std::vector<uint32_t> context_counts_;
  std::vector<double> losses_;
  std::vector<NodeId> centers_;   // sample i's center
  std::vector<double> sample_weights_;  // sample i's p_ij
  std::vector<uint32_t> center_slots_;   // phase 2's grad_in slot of sample i
  std::vector<uint32_t> context_slots_;  // grad_out slots, context_nodes_ shape
  std::vector<uint32_t> order_;   // shard-sorted visit order of batch slots
};

}  // namespace sepriv

#endif  // SEPRIVGEMB_CORE_BATCH_GRADIENT_ENGINE_H_
