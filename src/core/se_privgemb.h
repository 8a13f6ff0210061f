// SE-PrivGEmb: structure-preference enabled graph embedding generation under
// node-level Rényi differential privacy (the paper's core contribution,
// Algorithm 2).
//
// Pipeline per Train() call:
//   1. evaluate the structure preference p_ij on every edge (§II-D);
//   2. materialise the disjoint subgraphs GS (Algorithm 1);
//   3. per epoch: subsample B subgraphs (γ = B/|E|), compute per-sample
//      skip-gram gradients (Eq. 7/8), clip each to C, sum, perturb with the
//      configured strategy (Eq. 6 naive / Eq. 9 non-zero), apply averaged
//      update; account one subsampled-Gaussian RDP step and stop when the
//      δ̂ implied by the target ε would exceed δ (lines 8–10).
//
// The returned Win/Wout satisfy node-level (α, n·ε_γ(α))-RDP by Theorem 5 and
// convert to (ε, δ)-DP via Theorem 1; downstream use is covered by
// post-processing (Theorem 2).

#ifndef SEPRIVGEMB_CORE_SE_PRIVGEMB_H_
#define SEPRIVGEMB_CORE_SE_PRIVGEMB_H_

#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/config.h"
#include "dp/accountant.h"
#include "embedding/skipgram.h"
#include "graph/graph.h"
#include "graph/shard.h"
#include "proximity/proximity.h"
#include "util/privacy_annotations.h"
#include "util/status.h"

namespace sepriv {

/// Everything a caller needs to publish and audit the embedding. A public
/// sink: producing a TrainResult from raw graph data without a sanitizer is
/// a privacy-flow violation (the embedding is the published artifact), and
/// in debug builds the private trainer asserts the model matrices carry the
/// mechanism layer's sanitized bit.
struct SEPRIV_PUBLIC_SINK TrainResult {
  SkipGramModel model;           // Win (published) and Wout

  size_t epochs_run = 0;         // actual optimisation steps taken
  size_t epochs_allowed = 0;     // budget-implied cap (SIZE_MAX if non-private)
  bool stopped_by_budget = false;

  // Privacy actually spent (0 for the non-private counterpart).
  double spent_epsilon = 0.0;
  double spent_delta = 0.0;
  double best_rdp_order = 0.0;

  std::vector<double> loss_curve;  // mean per-sample batch loss per epoch

  /// min(P) used by the unified negative design (Theorem 3 constant).
  double min_proximity = 0.0;
};

class SePrivGEmb {
 public:
  /// Preference given as a proximity kind; the provider is built internally.
  SePrivGEmb(const Graph& graph, ProximityKind preference,
             const SePrivGEmbConfig& config,
             const ProximityOptions& prox_opts = {});

  /// Preference given as precomputed per-edge proximities (advanced use:
  /// custom measures not in the registry). Shares the caller's table
  /// instead of copying it: the selected weight vector
  /// (`preference.normalized` under config.normalize_proximity,
  /// `preference.values` otherwise) must outlive the trainer — this is the
  /// path the sweep/experiment runners take so that every repeated run cell
  /// reads one shared table.
  SePrivGEmb(const Graph& graph, const EdgeProximity& preference,
             const SePrivGEmbConfig& config);
  /// A temporary table would dangle.
  SePrivGEmb(const Graph&, EdgeProximity&&, const SePrivGEmbConfig&) = delete;

  // Not copyable or movable: weights_ may point at owned_weights_, and a
  // generated copy/move would leave the new object's pointer aimed at the
  // source's vector.
  SePrivGEmb(const SePrivGEmb&) = delete;
  SePrivGEmb& operator=(const SePrivGEmb&) = delete;

  /// Runs Algorithm 2 and returns the private embedding matrices.
  /// Sanitizer: the accountant-gated path from raw samples to the published
  /// model (with PerturbationStrategy::kNone the output is NOT private —
  /// statically sanctioned, but flagged at runtime by the unset
  /// dp_sanitized bit).
  SEPRIV_DP_SANITIZER
  TrainResult Train();

  /// Crash-safe variant of Train(): atomically checkpoints the full training
  /// state (model, RNG stream, epoch cursor, loss curve, accountant spend)
  /// to `ckpt.path` every `ckpt.every_epochs` epochs. If a checkpoint for
  /// THIS graph and config already exists at the path — the crash-restart
  /// case — training resumes from it and the final result is bit-identical
  /// to an uninterrupted run, including the reported epsilon spend. A
  /// checkpoint written for a different graph or config, or one that is
  /// unreadable/corrupt, is a structured error: retraining over a file that
  /// records already-spent privacy budget must be an explicit caller choice
  /// (delete the file), never a silent default.
  SEPRIV_DP_SANITIZER
  Status TrainResumable(const TrainCheckpointOptions& ckpt, TrainResult* out);

  /// Like TrainResumable but the checkpoint must exist: a missing file is
  /// kNotFound instead of a fresh start. For drivers that know a run was
  /// interrupted and want resumption or an error, never a restart.
  SEPRIV_DP_SANITIZER
  Status ResumeFromCheckpoint(const TrainCheckpointOptions& ckpt,
                              TrainResult* out);

  /// The per-edge preference weights the trainer will use (post
  /// normalisation); exposed for tests and diagnostics.
  const std::vector<double>& edge_weights() const { return *weights_; }
  double min_weight() const { return min_weight_; }

 private:
  /// Shared body of Train/TrainResumable/ResumeFromCheckpoint. `ckpt` null
  /// disables checkpointing; `require_checkpoint` turns a missing file into
  /// an error instead of a fresh start.
  SEPRIV_DP_SANITIZER
  Status TrainInternal(const TrainCheckpointOptions* ckpt,
                       bool require_checkpoint, TrainResult* out);

  const Graph& graph_;
  SePrivGEmbConfig config_;
  // p_ij per canonical edge: weights_ points at owned_weights_ when the
  // trainer computed its table (kind ctor) or at the caller's vector when
  // constructed from an EdgeProximity.
  std::vector<double> owned_weights_;
  const std::vector<double>* weights_ = &owned_weights_;
  double min_weight_ = 0.0;           // min(P) over edges
};

/// Scratch-space knobs of the out-of-core trainer.
struct OutOfCoreTrainOptions {
  /// Required: directory (created if missing) for the per-shard proximity
  /// cache and the on-disk sample store. Reusable across runs — the caches
  /// are fingerprint-keyed.
  std::string work_dir;

  /// BufferPool budget for the sample store, in pages. 0 = auto
  /// (SEPRIV_POOL_PAGES, fallback 4); one page suffices.
  size_t sample_pool_pages = 0;

  /// Page size of the sample store file. 0 = kSampleStorePageBytes.
  size_t sample_page_bytes = 0;

  /// Leave <work_dir>/samples.bin behind for inspection instead of deleting
  /// it when training completes.
  bool keep_sample_store = false;

  /// Crash-safe checkpointing (empty path = off). Same semantics as
  /// SePrivGEmb::TrainResumable: a matching checkpoint at the path resumes
  /// bit-identically; a mismatched or corrupt one is a structured error.
  TrainCheckpointOptions checkpoint;
};

/// Algorithm 2 against a (possibly disk-resident) GraphStore: proximities
/// run shard-at-a-time through the per-shard cache, GS streams through an
/// on-disk sample store, and epochs page samples through a fixed-budget
/// buffer pool — resident state is O(|V| + one shard + pool budget), never
/// O(|E|). The O(|V|) part is the degree vector and Algorithm 1's halo: the
/// rows of later-shard centers, at most |V| adjacency entries, which
/// ShardHaloOracle copies in per run of scan-shard edges. Only
/// ProximityKind::kPreferentialAttachment is supported (the one preference
/// whose oracle state is node-level: the degree vector).
/// For identical (store contents, config), the returned result — model
/// bits, loss curve, accounting — is identical to SePrivGEmb::Train() on
/// the equivalent in-memory graph, for every shard count, thread count,
/// and pool budget.
///
/// Storage failures that survive the stack's bounded retries
/// (shard/sample-page IO, sample-store writes, checkpoint publishes)
/// surface as a structured error, and `ooc.checkpoint` enables crash-safe
/// resume. On error `*out` holds no usable model.
SEPRIV_DP_SANITIZER
Status TryTrainOutOfCore(GraphStore& store, ProximityKind preference,
                         const SePrivGEmbConfig& config,
                         const OutOfCoreTrainOptions& ooc, TrainResult* out,
                         const ProximityOptions& prox_opts = {});

}  // namespace sepriv

#endif  // SEPRIVGEMB_CORE_SE_PRIVGEMB_H_
