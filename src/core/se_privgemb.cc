#include "core/se_privgemb.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "core/batch_gradient_engine.h"
#include "embedding/sample_store.h"
#include "embedding/subgraph_sampler.h"
#include "proximity/local_proximity.h"
#include "proximity/proximity_engine.h"
#include "util/alias_table.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace sepriv {
namespace {

/// Checkpoint wiring for one RunEpochs call. `options` null disables
/// checkpointing entirely; `resume` non-null restores the snapshot before
/// the first epoch (model, RNG stream, epoch cursor, loss curve, accountant
/// spend), making the continued run bit-identical to an uninterrupted one.
struct CheckpointPlan {
  const TrainCheckpointOptions* options = nullptr;
  uint64_t graph_fingerprint = 0;
  uint64_t config_digest = 0;
  const TrainCheckpoint* resume = nullptr;
};

/// Fills `plan` for a run with checkpointing enabled: loads a snapshot from
/// `options.path` if one exists and verifies it matches this (graph, config)
/// before arming the resume. A missing file is a fresh start (or an error
/// under `require_checkpoint`); an unreadable or mismatched one is always an
/// error — the file records privacy budget already spent, so discarding it
/// must be the caller's explicit decision (delete the file), never a silent
/// retrain.
Status ResolveCheckpointPlan(const TrainCheckpointOptions& options,
                             uint64_t graph_fingerprint,
                             uint64_t config_digest, bool require_checkpoint,
                             TrainCheckpoint* resume_ck,
                             CheckpointPlan* plan) {
  plan->options = &options;
  plan->graph_fingerprint = graph_fingerprint;
  plan->config_digest = config_digest;
  const Status load = LoadCheckpoint(options.path, resume_ck);
  if (load.ok()) {
    if (resume_ck->graph_fingerprint != graph_fingerprint) {
      return FailedPreconditionError(
          options.path + " was checkpointed from a different graph");
    }
    if (resume_ck->config_digest != config_digest) {
      return FailedPreconditionError(
          options.path + " was checkpointed under a different config");
    }
    plan->resume = resume_ck;
    return OkStatus();
  }
  if (load.code() == StatusCode::kNotFound && !require_checkpoint) {
    return OkStatus();  // no restart point: fresh run, checkpointing as we go
  }
  return load;
}

/// The epoch loop of Algorithm 2 (lines 4–10), shared verbatim by the
/// in-memory and out-of-core trainers: both hand it a SampleSource and the
/// same Rng position, so every downstream draw — batch subsampling, noise
/// substreams — and therefore the model is identical between them.
/// Sanitizer: this is the accountant-gated perturbation loop itself.
/// Returns a structured error if a batch fails its bounded IO recovery or a
/// checkpoint cannot be durably published; the partially-trained model in
/// `result` is then stale and must not be released.
SEPRIV_DP_SANITIZER
Status RunEpochs(const SePrivGEmbConfig& cfg, size_t num_nodes,
                 double min_weight, SampleSource& source,
                 const AliasTable* positive_alias, SkipGramModel& model,
                 Rng& rng, const CheckpointPlan& plan, TrainResult& result) {
  const bool is_private = cfg.perturbation != PerturbationStrategy::kNone;
  const size_t population = source.size();

  const double sampling_rate =
      std::min(1.0, static_cast<double>(cfg.batch_size) /
                        static_cast<double>(population));

  // Privacy accountant (lines 8-10). MaxSteps gives the same stopping epoch
  // as the per-epoch δ̂ >= δ test, in closed form.
  std::unique_ptr<RdpAccountant> accountant;
  result.epochs_allowed = std::numeric_limits<size_t>::max();
  if (is_private) {
    accountant = std::make_unique<RdpAccountant>(
        cfg.noise_multiplier, sampling_rate, cfg.rdp_max_order);
    result.epochs_allowed = accountant->MaxSteps(cfg.epsilon, cfg.delta);
  }

  // The parallel batch-gradient engine does the per-sample work (gradients,
  // clipping, reduction, noise); this loop stays a thin orchestrator. The
  // engine's output is bit-identical for every thread count. Weights reach
  // it through the SampleView, so the engine-level table is empty.
  BatchGradientEngineOptions eopts;
  eopts.num_nodes = num_nodes;
  eopts.dim = cfg.dim;
  eopts.clip_per_sample = is_private;
  eopts.clip_threshold = cfg.clip_threshold;
  eopts.negative_weighting = cfg.negative_weighting;
  eopts.min_weight = min_weight;
  eopts.num_threads = cfg.ResolvedThreads();
  eopts.storage = cfg.embedding_storage;
  BatchGradientEngine engine(eopts, {});

  const double lr = cfg.learning_rate;
  const double c = cfg.clip_threshold;
  const double sigma = cfg.noise_multiplier;
  // Noise scale per strategy: non-zero perturbation uses per-sample
  // sensitivity C; the naive first cut uses the worst-case batch sensitivity
  // B·C stated in §III-B.
  //
  // Note on Eq. (9)'s 1/B prefactor: scaling the released noisy sum by a
  // public constant is post-processing, so privacy is identical whether the
  // learning rate multiplies the batch MEAN or the batch SUM. We apply η to
  // the sum — the convention of practical SGNS trainers — because averaging
  // would dilute each touched row's update by 1/B (a row is typically hit by
  // a single sample per batch) and make the paper's η ∈ {0.01..0.3} grid
  // meaninglessly small.
  const double nonzero_stddev = c * sigma;
  const double naive_stddev =
      static_cast<double>(cfg.batch_size) * c * sigma;

  // Resume: the caller re-ran the deterministic prelude (so `model` and
  // `rng` sit exactly where a fresh run's epoch 0 would find them), and the
  // snapshot now overwrites them with the state at the checkpointed epoch
  // boundary. Every remaining epoch is a pure function of (model, rng,
  // epoch index), so the continuation is bit-identical to the run that
  // wrote the checkpoint — including the restored accountant spend.
  size_t start_epoch = 0;
  if (plan.resume != nullptr) {
    const TrainCheckpoint& ck = *plan.resume;
    model.w_in = ck.w_in;
    model.w_out = ck.w_out;
    rng.RestoreState(ck.rng);
    start_epoch = ck.epochs_run;
    result.epochs_run = ck.epochs_run;
    result.loss_curve = ck.loss_curve;
    if (accountant) accountant->Step(ck.accountant_steps);
  }

  // Reduced-precision storage: keep the weights exactly
  // float32-representable at every epoch boundary. Rounding here covers both
  // the fresh init and a resumed snapshot. After that, ApplyUpdate rounds
  // each row it writes (eopts.storage), so the other rows stay exact without
  // a pass; only kNaive, whose noise writes every row, rounds whole
  // matrices. Both happen BEFORE the checkpoint save, so a float payload
  // (checkpoint v2) is lossless and resume stays bit-identical. Rounding is
  // deterministic per element, idempotent and, on noised weights, DP
  // post-processing.
  const bool round_f32 = cfg.embedding_storage == EmbeddingStorage::kFloat32;
  if (round_f32) {
    model.w_in.RoundToFloat32();
    model.w_out.RoundToFloat32();
  }
  const bool round_all_rows =
      round_f32 && cfg.perturbation == PerturbationStrategy::kNaive;

  for (size_t epoch = start_epoch; epoch < cfg.max_epochs; ++epoch) {
    if (is_private && epoch >= result.epochs_allowed) {
      result.stopped_by_budget = true;
      break;
    }

    // Line 5: sample B subgraphs.
    std::vector<uint32_t> batch;
    if (positive_alias != nullptr) {
      batch.resize(std::min(cfg.batch_size, population));
      for (auto& idx : batch) idx = positive_alias->Sample(rng);
    } else {
      batch = SampleBatchIndices(population, cfg.batch_size, rng);
    }

    // Per-sample gradients + clipping (Eq. 7/8, Eq. 3), fanned out over the
    // pool, reduced in sample order. A shard-pin failure that survives the
    // storage layer's own bounded retries surfaces here with the
    // accumulators untouched.
    double batch_loss = 0.0;
    SEPRIV_RETURN_IF_ERROR(
        engine.TryAccumulateBatch(model, source, batch, &batch_loss));

    // Perturb (lines 6-7) and apply the update.
    switch (cfg.perturbation) {
      case PerturbationStrategy::kNone:
        break;
      case PerturbationStrategy::kNonZero:
        engine.PerturbNonZero(nonzero_stddev, rng);
        break;
      case PerturbationStrategy::kNaive:
        engine.PerturbNaiveIntoModel(model, lr, naive_stddev, rng);
        break;
    }
    engine.ApplyUpdate(model, lr);
    if (round_all_rows) {
      model.w_in.RoundToFloat32();
      model.w_out.RoundToFloat32();
    }

    if (is_private) accountant->Step();
    ++result.epochs_run;
    if (cfg.track_loss) {
      result.loss_curve.push_back(batch_loss /
                                  static_cast<double>(batch.size()));
    }

    // Checkpoint at the epoch boundary: the saved RNG state is the position
    // the NEXT epoch will read from, so a resumed run replays the stream
    // without a gap. SaveCheckpoint publishes atomically (temp + fsync +
    // rename), so a crash mid-save leaves the previous checkpoint intact.
    if (plan.options != nullptr && !plan.options->path.empty() &&
        result.epochs_run %
                std::max<size_t>(size_t{1}, plan.options->every_epochs) ==
            0) {
      TrainCheckpoint ck;
      ck.graph_fingerprint = plan.graph_fingerprint;
      ck.config_digest = plan.config_digest;
      ck.storage = cfg.embedding_storage;
      ck.epochs_run = result.epochs_run;
      ck.accountant_steps = accountant ? accountant->steps() : 0;
      ck.noise_multiplier = cfg.noise_multiplier;
      ck.sampling_rate = sampling_rate;
      ck.rng = rng.SaveState();
      ck.loss_curve = result.loss_curve;
      ck.w_in = model.w_in;
      ck.w_out = model.w_out;
      SEPRIV_RETURN_IF_ERROR(SaveCheckpoint(ck, plan.options->path));
    }
  }

  if (is_private && accountant->steps() > 0) {
    const DpBound bound = accountant->GetEpsilon(cfg.delta);
    result.spent_epsilon = bound.epsilon;
    result.best_rdp_order = bound.best_order;
    result.spent_delta = accountant->GetDelta(cfg.epsilon);
    // Debug-build end-to-end validation of the static privacy-flow model:
    // when epochs actually ran privately, the mechanism layer must have
    // marked the published matrices (PerturbNonZero → ApplyUpdate forward,
    // or PerturbNaiveIntoModel directly). A σ=0 config legitimately leaves
    // them unmarked — there is no noise to certify — so only assert when
    // noise was configured.
    if (result.epochs_run > 0 && cfg.noise_multiplier > 0.0 &&
        cfg.clip_threshold > 0.0) {
      SEPRIV_DCHECK_SANITIZED(result.model.w_in);
      SEPRIV_DCHECK_SANITIZED(result.model.w_out);
    }
  }

  // A completed run no longer needs its restart point. Best effort: the
  // file is fingerprint-guarded, so a stale leftover can at worst refuse a
  // later mismatched run, never corrupt one.
  if (plan.options != nullptr && plan.options->remove_on_success &&
      !plan.options->path.empty()) {
    std::remove(plan.options->path.c_str());
  }
  return OkStatus();
}

}  // namespace

SePrivGEmb::SePrivGEmb(const Graph& graph, ProximityKind preference,
                       const SePrivGEmbConfig& config,
                       const ProximityOptions& prox_opts)
    : graph_(graph), config_(config) {
  // The structure-preference precompute: the proximity engine's shard pass
  // over an in-memory store, cache-through when a cache directory is
  // configured. The table is bit-identical to the serial
  // ComputeEdgeProximities for every thread count, shard count and cache
  // state.
  const auto provider = MakeProximity(preference, graph, prox_opts);
  InMemoryGraphStore store(graph, config_.proximity_shards);
  ThreadPool pool(config_.ResolvedThreads());
  EdgeProximity prox =
      ShardedEdgeProximities(store, *provider, prox_opts, pool,
                             config_.ResolvedProximityCachePath());
  if (config_.normalize_proximity) {
    owned_weights_ = std::move(prox.normalized);
    min_weight_ = prox.normalized_min_positive;
  } else {
    owned_weights_ = std::move(prox.values);
    min_weight_ = prox.min_positive;
  }
}

SePrivGEmb::SePrivGEmb(const Graph& graph, const EdgeProximity& preference,
                       const SePrivGEmbConfig& config)
    : graph_(graph), config_(config) {
  SEPRIV_CHECK(preference.values.size() == graph.num_edges(),
               "edge proximity size %zu != |E| %zu", preference.values.size(),
               graph.num_edges());
  // Borrow, don't copy: repeated run cells of a sweep all read this one
  // table. The caller keeps it alive for the trainer's lifetime.
  if (config_.normalize_proximity) {
    SEPRIV_CHECK(preference.normalized.size() == graph.num_edges(),
                 "normalized proximity size %zu != |E| %zu",
                 preference.normalized.size(), graph.num_edges());
    weights_ = &preference.normalized;
    min_weight_ = preference.normalized_min_positive;
  } else {
    weights_ = &preference.values;
    min_weight_ = preference.min_positive;
  }
}

TrainResult SePrivGEmb::Train() {
  TrainResult result;
  const Status status =
      TrainInternal(nullptr, /*require_checkpoint=*/false, &result);
  SEPRIV_CHECK(status.ok(), "training failed: %s",
               status.ToString().c_str());
  return result;
}

Status SePrivGEmb::TrainResumable(const TrainCheckpointOptions& ckpt,
                                  TrainResult* out) {
  return TrainInternal(&ckpt, /*require_checkpoint=*/false, out);
}

Status SePrivGEmb::ResumeFromCheckpoint(const TrainCheckpointOptions& ckpt,
                                        TrainResult* out) {
  return TrainInternal(&ckpt, /*require_checkpoint=*/true, out);
}

Status SePrivGEmb::TrainInternal(const TrainCheckpointOptions* ckpt,
                                 bool require_checkpoint, TrainResult* out) {
  const SePrivGEmbConfig& cfg = config_;
  SEPRIV_CHECK(graph_.num_edges() > 0, "cannot train on an empty graph");
  SEPRIV_CHECK(cfg.dim >= 1 && cfg.batch_size >= 1, "bad dim/batch config");

  const bool is_private = cfg.perturbation != PerturbationStrategy::kNone;
  // Proximity-weighted positive sampling draws edges WITH replacement from a
  // non-uniform distribution; the subsampled-RDP accountant below assumes
  // uniform without-replacement batches (Definition 6), so combining the two
  // would under-report ε. Reject rather than silently publish an invalid
  // privacy claim.
  SEPRIV_CHECK(
      !(is_private &&
        cfg.positive_sampling == PositiveSampling::kProximityWeighted),
      "proximity-weighted positive sampling is incompatible with private "
      "training: the RDP accountant's sampling_rate assumes uniform "
      "without-replacement batches (use PerturbationStrategy::kNone)");

  CheckpointPlan plan;
  TrainCheckpoint resume_ck;
  if (ckpt != nullptr) {
    SEPRIV_RETURN_IF_ERROR(ResolveCheckpointPlan(
        *ckpt, graph_.Fingerprint(), cfg.Digest(), require_checkpoint,
        &resume_ck, &plan));
  }

  Rng rng(cfg.seed);
  TrainResult result;
  result.min_proximity = min_weight_;

  // Algorithm 2 line 2: disjoint subgraphs, negatives fixed before training.
  SubgraphSampler sampler(graph_, cfg.negatives, rng.Next(),
                          EdgeOrientation::kRandom,
                          cfg.negatives_exclude_neighbors);

  // Line 3: initialise Win / Wout.
  result.model = SkipGramModel(graph_.num_nodes(), cfg.dim, rng);

  // Optional proximity-weighted positive sampling (ablation mode).
  AliasTable positive_alias;
  const bool weighted =
      cfg.positive_sampling == PositiveSampling::kProximityWeighted;
  if (weighted) positive_alias.Build(*weights_);

  InMemorySampleSource source(sampler.All(), *weights_);
  SEPRIV_RETURN_IF_ERROR(RunEpochs(cfg, graph_.num_nodes(), min_weight_,
                                   source,
                                   weighted ? &positive_alias : nullptr,
                                   result.model, rng, plan, result));
  *out = std::move(result);
  return OkStatus();
}

Status TryTrainOutOfCore(GraphStore& store, ProximityKind preference,
                         const SePrivGEmbConfig& config,
                         const OutOfCoreTrainOptions& ooc, TrainResult* out,
                         const ProximityOptions& prox_opts) {
  const SePrivGEmbConfig& cfg = config;
  SEPRIV_CHECK(preference == ProximityKind::kPreferentialAttachment,
               "out-of-core training supports the degree preference only "
               "(the one whose oracle state is node-level)");
  SEPRIV_CHECK(!ooc.work_dir.empty(), "work_dir is required");
  SEPRIV_CHECK(cfg.positive_sampling == PositiveSampling::kUniformEdges,
               "proximity-weighted positive sampling needs the resident "
               "weight table; out-of-core training is uniform-only");
  const size_t n = store.num_nodes();
  const size_t num_edges = store.num_edges();
  SEPRIV_CHECK(num_edges > 0, "cannot train on an empty graph");
  SEPRIV_CHECK(cfg.dim >= 1 && cfg.batch_size >= 1, "bad dim/batch config");
  ::mkdir(ooc.work_dir.c_str(), 0755);  // EEXIST is fine

  const size_t num_shards = store.num_shards();
  ThreadPool pool(cfg.ResolvedThreads());
  const std::string cache_root = ooc.work_dir + "/proxcache";
  const uint64_t graph_fp = store.fingerprint();

  CheckpointPlan plan;
  TrainCheckpoint resume_ck;
  if (!ooc.checkpoint.path.empty()) {
    SEPRIV_RETURN_IF_ERROR(ResolveCheckpointPlan(
        ooc.checkpoint, graph_fp, cfg.Digest(),
        /*require_checkpoint=*/false, &resume_ck, &plan));
  }

  // Degree vector: the node-level oracle state of the degree preference.
  // O(|V|) resident, one sequential shard scan. Shard reads that fail their
  // bounded recovery surface as structured errors from here on.
  std::vector<double> degrees(n, 0.0);
  for (size_t s = 0; s < num_shards; ++s) {
    PinnedShard pin;
    SEPRIV_RETURN_IF_ERROR(store.TryPin(s, &pin));
    for (NodeId u = pin->node_begin; u < pin->node_end; ++u) {
      degrees[u] = static_cast<double>(pin->Degree(u));
    }
  }
  DegreeVectorProximity provider(std::move(degrees), num_edges);

  // Pass A: per-shard proximity passes (cache-through, so pass B reloads
  // them warm) streamed into the shared floor/scale reduction. Never holds
  // more than one shard's edge table.
  ProximityFinalizer fin;
  for (size_t s = 0; s < num_shards; ++s) {
    PinnedShard pin;
    SEPRIV_RETURN_IF_ERROR(store.TryPin(s, &pin));
    const ShardProximity sp = CachedShardProximities(
        pin.view(), s, graph_fp, provider, prox_opts, pool, cache_root);
    for (size_t k = 0; k < sp.forward.size(); ++k) {
      fin.Accumulate(0.5 * (sp.forward[k] + sp.backward[k]));
    }
  }
  fin.Seal();
  SEPRIV_CHECK(fin.count() == num_edges, "proximity pass lost edges");
  const double min_weight = cfg.normalize_proximity
                                ? fin.normalized_min_positive()
                                : fin.min_positive();

  Rng rng(cfg.seed);
  TrainResult result;
  result.min_proximity = min_weight;

  // Algorithm 2 line 2, streamed: the generator reproduces the bulk
  // sampler's RNG stream edge by edge; samples go to disk, not memory. The
  // seed draw and the line-3 model init consume `rng` in the exact order
  // Train() does.
  const uint64_t sampler_seed = rng.Next();
  result.model = SkipGramModel(n, cfg.dim, rng);

  const std::string samples_path = ooc.work_dir + "/samples.bin";
  {
    ShardHaloOracle oracle(store, provider.degrees());
    SubgraphGenerator gen(oracle, cfg.negatives, sampler_seed,
                          EdgeOrientation::kRandom,
                          cfg.negatives_exclude_neighbors);
    auto writer = SampleStoreWriter::Create(
        samples_path, static_cast<size_t>(cfg.negatives),
        ooc.sample_page_bytes > 0 ? ooc.sample_page_bytes
                                  : kSampleStorePageBytes);
    if (writer == nullptr) {
      return IoError("cannot create sample store " + samples_path);
    }
    Subgraph scratch;
    bool ok = true;
    for (size_t s = 0; s < num_shards; ++s) {
      PinnedShard pin;
      SEPRIV_RETURN_IF_ERROR(store.TryPin(s, &pin));
      const ShardView& view = pin.view();
      // Warm reload of this shard's raw proximities (pass A cached them);
      // the sealed finalizer turns them into the stored p_ij weights.
      const ShardProximity sp = CachedShardProximities(
          view, s, graph_fp, provider, prox_opts, pool, cache_root);
      // Edges go in index order (the generator's RNG stream depends on it),
      // in runs whose centers' rows the oracle's halo holds. Without the
      // non-adjacency test the generator never probes: one run, no halo.
      size_t run_end = view.edge_begin;
      Status halo;
      view.ForEachEdge([&](size_t e, NodeId u, NodeId v) {
        if (e == run_end) {
          run_end = view.edge_begin + view.edge_count;
          if (halo.ok() && cfg.negatives_exclude_neighbors) {
            halo = oracle.Load(view, e, &run_end);
          }
        }
        if (!halo.ok()) return;
        const size_t k = e - view.edge_begin;
        const double sym = 0.5 * (sp.forward[k] + sp.backward[k]);
        const double w =
            cfg.normalize_proximity ? fin.Normalized(sym) : fin.Value(sym);
        gen.Next(u, v, static_cast<uint32_t>(e), scratch);
        ok = writer->Append(scratch, w) && ok;
      });
      SEPRIV_RETURN_IF_ERROR(halo);
    }
    ok = writer->Finish() && ok;
    if (!ok) {
      // Prefer the writer's structured first-failure (an ENOSPC spill keeps
      // its kNoSpace code so callers know retrying is pointless).
      return writer->status().ok()
                 ? IoError("sample store write failed (" + samples_path + ")")
                 : writer->status();
    }
  }

  auto samples = SampleStore::Open(samples_path, ooc.sample_pool_pages);
  if (samples == nullptr) {
    return CorruptionError("cannot open sample store " + samples_path);
  }
  SEPRIV_CHECK(samples->size() == num_edges, "sample store size mismatch");

  SEPRIV_RETURN_IF_ERROR(RunEpochs(cfg, n, min_weight, *samples,
                                   /*positive_alias=*/nullptr, result.model,
                                   rng, plan, result));

  samples.reset();  // close before unlinking
  if (!ooc.keep_sample_store) std::remove(samples_path.c_str());
  *out = std::move(result);
  return OkStatus();
}

}  // namespace sepriv
