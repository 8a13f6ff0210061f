// Crash-safe training checkpoints for SE-PrivGEmb.
//
// A checkpoint is the complete resume state of a training run at an epoch
// boundary: both model matrices, the trainer's Rng stream (including the
// Box–Muller cache), the epoch cursor, the loss curve so far, and — the part
// the DP contract cannot live without — the RdpAccountant's step count. The
// accountant's in-memory spend is what stops a crash-and-retrain loop from
// silently under-counting epsilon across process lifetimes: a resumed run
// replays the persisted step count into a fresh accountant before the first
// new epoch, so GetEpsilon() reports the spend of ALL epochs ever run against
// this (graph, config) pair, not just the ones since the last crash.
//
// Binding: a checkpoint records the graph fingerprint, the config's
// result-affecting digest and a digest of the structure preference the run
// trains on (its per-edge weights and min(P)), and resuming rejects a
// mismatch — resuming under different data, hyper-parameters or preference
// would otherwise blend two training runs (and two privacy analyses) into
// one meaningless artifact.
//
// Privacy note: the serialized model is PRE-publication state. Under
// PerturbationStrategy::kNone it is raw-graph-derived and must be treated as
// sensitive as the graph itself; under the private strategies each persisted
// epoch's gradients have already been noised and charged to the accountant,
// so the checkpoint is no more sensitive than the embedding the run will
// publish. Checkpoint files therefore carry the same handling obligation as
// the graph: keep them in the training trust domain, never ship them as
// results. The privflow annotations below encode exactly this.
//
// Durability: SaveCheckpoint goes through util/atomic_file.h
// (write-temp + fsync file + rename + fsync directory), so a crash at any
// instant leaves either the previous checkpoint or the new one — never a
// torn file. Loaders verify magic, version, geometry, and a whole-file
// checksum, and report kCorruption rather than trusting a damaged blob.

#ifndef SEPRIVGEMB_CORE_CHECKPOINT_H_
#define SEPRIVGEMB_CORE_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "linalg/matrix.h"
#include "util/privacy_annotations.h"
#include "util/rng.h"
#include "util/status.h"

namespace sepriv {

/// Complete resume state of a training run at an epoch boundary. Sensitive:
/// the matrices are pre-publication model state (see file comment).
struct SEPRIV_SENSITIVE_SOURCE TrainCheckpoint {
  uint64_t graph_fingerprint = 0;  // Graph::Fingerprint() of the training graph
  uint64_t config_digest = 0;      // SePrivGEmbConfig::Digest()
  /// FnvDigest of min(P) followed by every per-edge weight the run trains
  /// on, in edge order (format v4).
  uint64_t preference_digest = 0;

  /// Numeric storage mode of the run (format v2). Under kFloat32 the model
  /// matrices are serialized as float payloads — lossless, because the
  /// trainer rounds the weights to float32 at every epoch boundary before
  /// saving — which halves the checkpoint size. Loading widens back to
  /// double exactly, so resume stays bit-identical.
  EmbeddingStorage storage = EmbeddingStorage::kFloat64;

  uint64_t epochs_run = 0;         // epochs fully completed and persisted

  // RdpAccountant resume state: the step count is the spend; the multiplier
  // and rate are stored for validation (they are derivable from the config,
  // and a mismatch means the caller's accountant would mis-price the steps).
  uint64_t accountant_steps = 0;
  double noise_multiplier = 0.0;
  double sampling_rate = 0.0;

  Rng::State rng;                  // trainer stream, mid-pair exact

  std::vector<double> loss_curve;  // per-epoch mean loss so far

  Matrix w_in;                     // model state (dp_sanitized bit preserved)
  Matrix w_out;
};

/// Checkpoint save/load policy for resumable training.
struct TrainCheckpointOptions {
  std::string path;          // empty ⇒ checkpointing disabled
  size_t every_epochs = 1;   // write after every Nth completed epoch
  bool remove_on_success = true;  // unlink the file when training completes
};

/// Atomically and durably writes `ckpt` to `path`. Annotated as a privflow
/// public sink: persisting pre-publication model state leaves the process
/// boundary, so every tainted caller must carry a justified suppression
/// explaining why its checkpointed state is handled soundly.
/// Fault-injection sites: "checkpoint.write", "checkpoint.sync",
/// "checkpoint.rename" (see util/atomic_file.h).
SEPRIV_PUBLIC_SINK Status SaveCheckpoint(const TrainCheckpoint& ckpt,
                                         const std::string& path);

/// Loads and fully validates a checkpoint: magic, version, geometry,
/// whole-file checksum. kNotFound when no file exists (a fresh run),
/// kCorruption when the file exists but cannot be trusted.
/// Fault-injection site: "checkpoint.read".
Status LoadCheckpoint(const std::string& path, TrainCheckpoint* out);

}  // namespace sepriv

#endif  // SEPRIVGEMB_CORE_CHECKPOINT_H_
