// Configuration of the SE-PrivGEmb trainer (paper Algorithm 2 inputs).

#ifndef SEPRIVGEMB_CORE_CONFIG_H_
#define SEPRIVGEMB_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace sepriv {

/// Gradient perturbation strategy (paper Table VI compares kNaive/kNonZero).
enum class PerturbationStrategy {
  kNone,     // non-private SE-GEmb counterpart: no clipping, no noise
  kNaive,    // first-cut Eq. (6): sensitivity B·C, noise on every row
  kNonZero,  // SE-PrivGEmb Eq. (9): sensitivity C, noise on touched rows only
};

/// Weight of each negative term in the per-sample loss (DESIGN.md §2.1).
enum class NegativeWeighting {
  kPaperPij,     // literal Eq. (5): both terms weighted p_ij
  kUnifiedMinP,  // idealized objective (13): negatives weighted min(P)
  kUnit,         // plain SGNS (no structure preference) — ablation
};

/// How positive subgraphs are drawn each epoch.
enum class PositiveSampling {
  kUniformEdges,        // Algorithm 2 line 5: uniform without replacement
  kProximityWeighted,   // ablation: edges ∝ p_ij (alias table), w/ replacement
};

/// Numeric storage of the embedding tables (Win/Wout).
enum class EmbeddingStorage {
  /// Full float64 rows (default; the paper's arithmetic exactly).
  kFloat64,
  /// Reduced precision: the update pipeline still runs in double, but the
  /// weights are rounded to their nearest float32 value at every epoch
  /// boundary. Halves the resident bytes of the checkpoint payload and of a
  /// Float32Matrix serving copy; rounding noised weights is DP
  /// post-processing. Result-affecting (digests differ from kFloat64).
  kFloat32,
};

struct SePrivGEmbConfig {
  // Model hyper-parameters (paper §VI-A defaults in comments).
  size_t dim = 128;             // r = 128
  int negatives = 5;            // k = 5 (Table V sweet spot)
  size_t batch_size = 128;      // B = 128 (Table II)
  double learning_rate = 0.1;   // η = 0.1 (Table III)
  size_t max_epochs = 200;      // 200 StrucEqu / 2000 link prediction

  // Privacy parameters.
  double clip_threshold = 2.0;    // C = 2 (Table IV)
  double noise_multiplier = 5.0;  // σ = 5
  double epsilon = 3.5;           // target ε ∈ {0.5,...,3.5}
  double delta = 1e-5;            // δ = 1e-5
  int rdp_max_order = 64;

  PerturbationStrategy perturbation = PerturbationStrategy::kNonZero;
  NegativeWeighting negative_weighting = NegativeWeighting::kPaperPij;
  PositiveSampling positive_sampling = PositiveSampling::kUniformEdges;
  EmbeddingStorage embedding_storage = EmbeddingStorage::kFloat64;

  /// Use proximities rescaled to max 1 (Theorem 3 is scale-invariant; this
  /// keeps gradient magnitudes comparable across preference choices).
  bool normalize_proximity = true;

  /// Algorithm 1 keeps negatives non-adjacent to the center (true). Setting
  /// false samples negatives over all of V \ {center} — the support of
  /// Theorem 3's idealized objective (Eq. 12). Ablation knob.
  bool negatives_exclude_neighbors = true;

  uint64_t seed = 1;

  /// Record mean batch loss every epoch into TrainResult::loss_curve.
  bool track_loss = true;

  /// Worker threads for the batch-gradient engine. 0 = auto: the
  /// SEPRIV_NUM_THREADS environment variable if set, else hardware
  /// concurrency. Output is bit-identical for every value; 1 runs the whole
  /// hot path inline on the calling thread.
  size_t num_threads = 0;

  /// num_threads with the auto policy applied (always >= 1).
  size_t ResolvedThreads() const;

  /// Node-range shard count of the in-memory store the structure-preference
  /// precompute runs over. It does not affect results: the table is
  /// bit-identical for every value. It stays only because
  /// perfbench/replica.cc reads it.
  size_t proximity_shards = 1;

  /// Directory of the persistent edge-weight cache consulted before the
  /// proximity precompute (see proximity/proximity_engine.h). Empty = auto:
  /// the SEPRIV_PROXIMITY_CACHE environment variable if set, else caching is
  /// disabled; "-" forces caching OFF even when the environment variable is
  /// set (e.g. an uncached baseline inside a cached test sweep). Entries are
  /// keyed by graph fingerprint + provider name + options, so one directory
  /// can safely serve many graphs and sweeps; stale or corrupt entries are
  /// recomputed, never trusted.
  std::string proximity_cache_path;

  /// proximity_cache_path with the auto policy applied (may be empty:
  /// caching off).
  std::string ResolvedProximityCachePath() const;

  /// Digest over every RESULT-AFFECTING field. Two configs with equal
  /// digests produce bit-identical TrainResults on the same graph; execution
  /// knobs that are proven result-neutral (num_threads, proximity_shards,
  /// proximity_cache_path) are deliberately excluded. Checkpoints store this
  /// digest so a resume under a different hyper-parameter set is rejected
  /// instead of silently blending two training runs.
  uint64_t Digest() const;

  std::string DebugString() const;
};

}  // namespace sepriv

#endif  // SEPRIVGEMB_CORE_CONFIG_H_
