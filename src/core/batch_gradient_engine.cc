#include "core/batch_gradient_engine.h"

#include <algorithm>

#include "dp/clipping.h"
#include "embedding/sgns.h"
#include "linalg/kernels.h"
#include "util/check.h"

namespace sepriv {
namespace {

// Samples per work chunk in the gather and gradient phases. Small enough to
// balance a B=128 batch over 8 workers, large enough to amortise chunk
// dispatch. A gather group no larger than this (a few samples from one
// sample-store page) is copied inline, where a fan-out would cost more than
// the copy.
constexpr size_t kSampleGrain = 8;

// Rows per noise task: a scheduling grain only. Each draw is a pure
// function of (key, stream, index), so neither this nor the thread count
// can change the noise.
constexpr size_t kNoiseBlockRows = 32;

// Noise streams of the counter-based generator: one per parameter matrix.
constexpr uint64_t kStreamIn = 0;   // grad_in / w_in
constexpr uint64_t kStreamOut = 1;  // grad_out / w_out

// Touched rows per chunk in the apply phase.
constexpr size_t kApplyGrain = 64;

// How many samples ahead the touch phase prefetches slot entries.
constexpr size_t kTouchAhead = 4;

size_t NumBlocks(size_t n) {
  return (n + kNoiseBlockRows - 1) / kNoiseBlockRows;
}

}  // namespace

BatchGradientEngine::BatchGradientEngine(
    const BatchGradientEngineOptions& opts,
    std::span<const double> /*edge_weights*/)
    : opts_(opts),
      pool_(std::max<size_t>(1, opts.num_threads)),
      grad_in_(opts.num_nodes, opts.dim),
      grad_out_(opts.num_nodes, opts.dim) {
  SEPRIV_CHECK(opts_.num_nodes > 0 && opts_.dim > 0,
               "engine needs a non-empty model shape");
  SEPRIV_CHECK(opts_.num_nodes <= kRepeated,
               "slot numbers must stay below the repeat flag");
}

void BatchGradientEngine::ResolveWeights(double pij, double& w_pos,
                                         double& w_neg) const {
  w_pos = pij;
  w_neg = pij;
  switch (opts_.negative_weighting) {
    case NegativeWeighting::kPaperPij:
      break;  // literal Eq. (5)
    case NegativeWeighting::kUnifiedMinP:
      w_neg = opts_.min_weight;
      break;
    case NegativeWeighting::kUnit:
      w_pos = w_neg = 1.0;
      break;
  }
}

Status BatchGradientEngine::TryAccumulateBatch(const SkipGramModel& model,
                                               SampleSource& source,
                                               std::span<const uint32_t> batch,
                                               double* loss) {
  const size_t m = batch.size();
  if (m == 0) {
    *loss = 0.0;
    return OkStatus();
  }
  const size_t dim = opts_.dim;

  // Slot width: every sample gets room for the widest (k+1) in this batch.
  // NegativesCount is pin-free by contract, so sizing needs no shard I/O.
  size_t ctx_slot = 0;
  for (uint32_t idx : batch) {
    ctx_slot = std::max(ctx_slot, source.NegativesCount(idx) + 1);
  }
  ctx_slot_ = std::max(ctx_slot_, ctx_slot);
  if (context_nodes_.size() < m * ctx_slot_) {
    context_nodes_.resize(m * ctx_slot_);
  }
  if (context_counts_.size() < m) context_counts_.resize(m);
  if (losses_.size() < m) losses_.resize(m);
  if (centers_.size() < m) centers_.resize(m);
  if (sample_weights_.size() < m) sample_weights_.resize(m);

  // Visit order: identity for a single-shard source; shard-sorted (stable,
  // so within a shard the batch order is kept) when sharded. Only the ORDER
  // samples are gathered in changes — every sample lands in its original
  // slot i, so the later phases never see the permutation.
  order_.resize(m);
  for (size_t i = 0; i < m; ++i) order_[i] = static_cast<uint32_t>(i);
  if (source.num_shards() > 1) {
    std::stable_sort(order_.begin(), order_.end(),
                     [&](uint32_t a, uint32_t b) {
                       return source.ShardOf(batch[a]) <
                              source.ShardOf(batch[b]);
                     });
  }

  // Phase 1, gather: copy each sample into its slot i — center, weight,
  // and the context followed by the negatives in context_nodes_ — one shard
  // group at a time, pinning the group's shard for the copy. A small group
  // (the usual out-of-core case: a few samples per page) runs inline.
  const size_t slot = ctx_slot_;
  size_t pos = 0;
  while (pos < m) {
    const size_t shard = source.ShardOf(batch[order_[pos]]);
    size_t group_end = pos + 1;
    while (group_end < m &&
           source.ShardOf(batch[order_[group_end]]) == shard) {
      ++group_end;
    }
    // A pin failure (after the source's own bounded retries) aborts the
    // batch cleanly: only per-sample scratch has been written so far — the
    // shared accumulators are first touched in phase 2 — so the caller can
    // retry the whole batch or surface the error.
    SEPRIV_RETURN_IF_ERROR(source.TryPinShard(shard));
    pool_.ParallelFor(group_end - pos, kSampleGrain,
                      [&](size_t begin, size_t end) {
      for (size_t g = begin; g < end; ++g) {
        const size_t i = order_[pos + g];
        const SampleView v = source.Get(batch[i]);
        NodeId* nodes = context_nodes_.data() + i * slot;
        nodes[0] = v.context;
        std::copy(v.negatives.begin(), v.negatives.end(), nodes + 1);
        context_counts_[i] = static_cast<uint32_t>(v.negatives.size() + 1);
        centers_[i] = v.center;
        sample_weights_[i] = v.weight;
      }
    });
    pos = group_end;
  }

  // Phase 2, touch (serial): slab slots in first-touch sample order, so
  // they are independent of worker scheduling. An entry whose Touch created
  // its slot is placed at that slot; any other entry (a repeat within this
  // call, or a row an earlier call touched) is queued in repeats_, in
  // sample order. Touching may grow the slabs, so it finishes before phase
  // 3 takes rows.
  const size_t entries = slot + 1;  // the center, then the k+1 contexts
  if (places_.size() < m * entries) places_.resize(m * entries);
  repeats_.clear();
  const auto place = [&](SparseRowGrad& grads, NodeId row, bool out) {
    const size_t touched = grads.touched().size();
    const uint32_t s = grads.Touch(row);
    if (grads.touched().size() != touched) return s;
    repeats_.push_back({s, out});
    return kRepeated | static_cast<uint32_t>(repeats_.size() - 1);
  };
  for (size_t i = 0; i < m; ++i) {
    if (i + kTouchAhead < m) {
      const size_t ahead = i + kTouchAhead;
      grad_in_.PrefetchSlot(centers_[ahead]);
      const NodeId* nodes = context_nodes_.data() + ahead * slot;
      for (uint32_t k = 0; k < context_counts_[ahead]; ++k) {
        grad_out_.PrefetchSlot(nodes[k]);
      }
    }
    uint32_t* places = places_.data() + i * entries;
    places[0] = place(grad_in_, centers_[i], false);
    const NodeId* nodes = context_nodes_.data() + i * slot;
    for (uint32_t k = 0; k < context_counts_[i]; ++k) {
      places[k + 1] = place(grad_out_, nodes[k], true);
    }
  }
  if (repeat_rows_.size() < repeats_.size() * dim) {
    repeat_rows_.resize(repeats_.size() * dim);
  }

  // Phase 3, gradient, clip and place, over the whole batch in one fan-out.
  // Each worker computes a sample's rows into its own scratch; a row that
  // created its slot is added into that (zero) slab row — no other entry
  // writes there in this phase — and a repeated row is copied to its
  // repeats_ index.
  pool_.ParallelFor(m, kSampleGrain, [&](size_t begin, size_t end) {
    thread_local std::vector<double> scratch;
    if (scratch.size() < entries * dim) scratch.resize(entries * dim);
    for (size_t i = begin; i < end; ++i) {
      double w_pos, w_neg;
      ResolveWeights(sample_weights_[i], w_pos, w_neg);
      const size_t contexts = context_counts_[i];
      std::span<double> center(scratch.data(), dim);
      std::span<NodeId> nodes(context_nodes_.data() + i * slot, contexts);
      std::span<double> rows(scratch.data() + dim, contexts * dim);
      // `nodes` is the kernel's input (context, then negatives) and its
      // output: it writes each context back to the entry it read it from.
      losses_[i] = ComputeSgnsGradientInto(model, centers_[i], nodes[0],
                                           nodes.subspan(1), w_pos, w_neg,
                                           center, nodes, rows);
      if (opts_.clip_per_sample) {
        // Per-sample clipping, separately per parameter matrix: e∇_{v_i}
        // (center, Win) and the joint e∇_{v_j} block (contexts, Wout).
        // sepriv-privflow: allow(unaccounted-sanitizer): charged by the epoch driver — RunEpochs owns the RdpAccountant; the engine is mechanism plumbing below the accounting layer
        ClipL2InPlace(center, opts_.clip_threshold);
        ClipL2InPlace(rows, opts_.clip_threshold);
      }
      const uint32_t* places = places_.data() + i * entries;
      for (size_t e = 0; e <= contexts; ++e) {
        const double* row = scratch.data() + e * dim;
        const uint32_t p = places[e];
        if (p & kRepeated) {
          std::copy_n(row, dim, repeat_rows_.data() + (p & ~kRepeated) * dim);
        } else {
          SparseRowGrad& grads = e == 0 ? grad_in_ : grad_out_;
          kernels::Axpy(1.0, row, grads.SlotRow(p).data(), dim);
        }
      }
    }
  });

  // Phase 4: the repeated rows, sharded by slot ownership. Shard s adds
  // only slab rows with slot ≡ s (mod shards), walking repeats_ in sample
  // order — so every accumulator row receives its additions in exactly the
  // serial order no matter how many shards run.
  if (!repeats_.empty()) {
    const size_t shards = pool_.num_threads();
    pool_.ParallelFor(shards, 1, [&](size_t begin, size_t end) {
      for (size_t shard = begin; shard < end; ++shard) {
        for (size_t r = 0; r < repeats_.size(); ++r) {
          const Repeat rep = repeats_[r];
          if (rep.slot % shards != shard) continue;
          SparseRowGrad& grads = rep.out ? grad_out_ : grad_in_;
          kernels::Axpy(1.0, repeat_rows_.data() + r * dim,
                        grads.SlotRow(rep.slot).data(), dim);
        }
      }
    });
  }

  double batch_loss = 0.0;  // sample order, so thread-count invariant
  for (size_t i = 0; i < m; ++i) batch_loss += losses_[i];
  *loss = batch_loss;
  return OkStatus();
}

void BatchGradientEngine::PerturbNonZero(double stddev, Rng& rng) {
  const uint64_t key = rng.Next();  // one master draw per perturbation
  if (stddev == 0.0) return;
  // Runtime half of the privacy-flow contract: the accumulators now carry
  // DP noise, and ApplyUpdate forwards the sanitized bit into the model.
  grad_in_.MarkDpSanitized();
  grad_out_.MarkDpSanitized();
  const size_t in_blocks = NumBlocks(grad_in_.touched().size());
  const size_t out_blocks = NumBlocks(grad_out_.touched().size());
  const size_t dim = opts_.dim;

  // Block b < in_blocks perturbs grad_in slots [b·R, ...); the rest map to
  // grad_out. Slab element slot·dim + column receives draw Z(key, stream,
  // slot·dim + column), so the noise a touched row receives is a function
  // of (master seed, epoch, matrix, slot) only. A block's rows are
  // contiguous in the slab, so one fill covers them.
  pool_.ParallelFor(in_blocks + out_blocks, 1, [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      const bool is_in = b < in_blocks;
      const std::span<double> slab = is_in ? grad_in_.slab() : grad_out_.slab();
      const size_t lo = (is_in ? b : b - in_blocks) * kNoiseBlockRows * dim;
      const size_t hi = std::min(slab.size(), lo + kNoiseBlockRows * dim);
      kernels::GaussianAccumulate(key, is_in ? kStreamIn : kStreamOut, lo,
                                  slab.data() + lo, hi - lo, stddev);
    }
  });
}

void BatchGradientEngine::PerturbNaiveIntoModel(SkipGramModel& model,
                                                double learning_rate,
                                                double stddev, Rng& rng) {
  const uint64_t key = rng.Next();  // one master draw per perturbation
  if (stddev == 0.0) return;
  model.w_in.MarkDpSanitized();
  model.w_out.MarkDpSanitized();
  const size_t dim = opts_.dim;
  const size_t size = opts_.num_nodes * dim;
  const double scale = -learning_rate * stddev;
  // Element node·dim + column of each matrix receives Z(key, stream, same).
  pool_.ParallelFor(NumBlocks(opts_.num_nodes), 1,
                    [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      const size_t lo = b * kNoiseBlockRows * dim;
      const size_t hi = std::min(size, lo + kNoiseBlockRows * dim);
      kernels::GaussianAccumulate(key, kStreamIn, lo, model.w_in.data() + lo,
                                  hi - lo, scale);
      kernels::GaussianAccumulate(key, kStreamOut, lo, model.w_out.data() + lo,
                                  hi - lo, scale);
    }
  });
}

void BatchGradientEngine::ApplyUpdate(SkipGramModel& model,
                                      double learning_rate) {
  const size_t dim = opts_.dim;
  const bool round_f32 = opts_.storage == EmbeddingStorage::kFloat32;
  // Gather-axpy: slot s of the slab updates model row touched()[s], and is
  // zeroed right after, while it is still in cache, so the accumulators
  // release their rows without a memset of the slab.
  const auto apply = [&](SparseRowGrad& grads, Matrix& weights) {
    const std::vector<uint32_t>& rows = grads.touched();
    pool_.ParallelFor(rows.size(), kApplyGrain, [&](size_t begin, size_t end) {
      for (size_t s = begin; s < end; ++s) {
        const std::span<double> row = weights.Row(rows[s]);
        const std::span<double> grad = grads.SlotRow(static_cast<uint32_t>(s));
        kernels::Axpy(-learning_rate, grad.data(), row.data(), dim);
        if (round_f32) RoundToFloat32(row);
        std::fill(grad.begin(), grad.end(), 0.0);
      }
    });
  };
  apply(grad_in_, model.w_in);
  apply(grad_out_, model.w_out);
  // Forward the runtime taint bit: once PerturbNonZero has noised the
  // accumulators, the model rows they update are DP-sanitized output.
  if (grad_in_.dp_sanitized()) model.w_in.MarkDpSanitized();
  if (grad_out_.dp_sanitized()) model.w_out.MarkDpSanitized();
  grad_in_.ReleaseZeroedRows();
  grad_out_.ReleaseZeroedRows();
}

}  // namespace sepriv
