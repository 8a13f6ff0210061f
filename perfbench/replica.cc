#include "replica.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "core/batch_gradient_engine.h"
#include "dp/accountant.h"
#include "embedding/sample_store.h"
#include "embedding/subgraph_sampler.h"
#include "proximity/local_proximity.h"
#include "proximity/proximity_engine.h"
#include "util/check.h"
#include "util/mem.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using sepriv::BufferPoolStats;
using sepriv::GraphStore;
using sepriv::NodeId;
using sepriv::PinnedShard;
using sepriv::Rng;
using sepriv::SePrivGEmbConfig;
using sepriv::Status;
using sepriv::TrainResult;

constexpr double kMiB = 1024.0 * 1024.0;

/// The entry point's StoreAdjacencyOracle (se_privgemb.cc, internal there),
/// plus a count of the shard switches it makes.
class CountingStoreOracle final : public sepriv::AdjacencyOracle {
 public:
  CountingStoreOracle(GraphStore& store, uint64_t* switches)
      : store_(store), num_nodes_(store.num_nodes()), switches_(switches) {}

  size_t num_nodes() const override { return num_nodes_; }
  bool HasEdge(NodeId u, NodeId v) const override {
    const size_t s = store_.manifest().ShardOfNode(u);
    if (s != cur_shard_) {
      cur_ = PinnedShard();
      cur_ = store_.Pin(s);
      cur_shard_ = s;
      ++*switches_;
    }
    return cur_->HasEdge(u, v);
  }

 private:
  GraphStore& store_;
  size_t num_nodes_;
  uint64_t* switches_;
  mutable PinnedShard cur_;
  mutable size_t cur_shard_ = SIZE_MAX;
};

void RequireReplicatedConfig(const SePrivGEmbConfig& cfg) {
  SEPRIV_CHECK(
      cfg.perturbation == sepriv::PerturbationStrategy::kNonZero &&
          cfg.positive_sampling == sepriv::PositiveSampling::kUniformEdges &&
          cfg.embedding_storage == sepriv::EmbeddingStorage::kFloat64 &&
          cfg.proximity_shards == 1,
      "the traced replica covers non-zero perturbation, uniform positive "
      "sampling, float64 storage and one proximity shard only");
}

/// `after - before`, field by field.
BufferPoolStats StatsDelta(const BufferPoolStats& after,
                           const BufferPoolStats& before) {
  BufferPoolStats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.evictions = after.evictions - before.evictions;
  d.prefetch_loads = after.prefetch_loads - before.prefetch_loads;
  d.prefetch_dropped = after.prefetch_dropped - before.prefetch_dropped;
  d.read_retries = after.read_retries - before.read_retries;
  d.discards = after.discards - before.discards;
  return d;
}

/// RunEpochs (se_privgemb.cc) for the replicated configuration.
Status TracedEpochs(const SePrivGEmbConfig& cfg, size_t num_nodes,
                    double min_weight, sepriv::SampleSource& source,
                    Rng& rng, Trace& trace, LayerCounters& c,
                    TrainResult& result) {
  const size_t population = source.size();
  const double sampling_rate =
      std::min(1.0, static_cast<double>(cfg.batch_size) /
                        static_cast<double>(population));

  const size_t rss_before = sepriv::CurrentRssBytes();
  std::unique_ptr<sepriv::RdpAccountant> accountant;
  std::unique_ptr<sepriv::BatchGradientEngine> engine;
  {
    ScopedSpan span(trace, "engine.init");
    accountant = std::make_unique<sepriv::RdpAccountant>(
        cfg.noise_multiplier, sampling_rate, cfg.rdp_max_order);
    result.epochs_allowed = accountant->MaxSteps(cfg.epsilon, cfg.delta);
    sepriv::BatchGradientEngineOptions eopts;
    eopts.num_nodes = num_nodes;
    eopts.dim = cfg.dim;
    eopts.clip_per_sample = true;
    eopts.clip_threshold = cfg.clip_threshold;
    eopts.negative_weighting = cfg.negative_weighting;
    eopts.min_weight = min_weight;
    eopts.num_threads = cfg.ResolvedThreads();
    engine = std::make_unique<sepriv::BatchGradientEngine>(
        eopts, std::span<const double>{});
  }

  const double stddev = cfg.clip_threshold * cfg.noise_multiplier;
  {
    ScopedSpan epochs(trace, "epochs");
    for (size_t epoch = 0; epoch < cfg.max_epochs; ++epoch) {
      if (epoch >= result.epochs_allowed) {
        result.stopped_by_budget = true;
        break;
      }
      const double step_begin = NowSeconds();
      std::vector<uint32_t> batch;
      {
        ScopedSpan span(trace, "epoch.batch");
        batch = sepriv::SampleBatchIndices(population, cfg.batch_size, rng);
      }
      double batch_loss = 0.0;
      {
        ScopedSpan span(trace, "epoch.accumulate");
        SEPRIV_RETURN_IF_ERROR(
            engine->TryAccumulateBatch(result.model, source, batch,
                                       &batch_loss));
      }
      {
        ScopedSpan span(trace, "epoch.noise");
        engine->PerturbNonZero(stddev, rng);
      }
      c.noise_draws += (engine->grad_in().touched().size() +
                        engine->grad_out().touched().size()) *
                       cfg.dim;
      c.samples_accumulated += batch.size();
      {
        ScopedSpan span(trace, "epoch.apply");
        engine->ApplyUpdate(result.model, cfg.learning_rate);
      }
      accountant->Step();
      ++result.epochs_run;
      if (cfg.track_loss) {
        result.loss_curve.push_back(batch_loss /
                                    static_cast<double>(batch.size()));
      }
      c.step_ms.push_back((NowSeconds() - step_begin) * 1e3);
      if (epoch == 0) {
        c.engine_rss_mb =
            (static_cast<double>(sepriv::CurrentRssBytes()) -
             static_cast<double>(rss_before)) / kMiB;
      }
    }
  }

  ScopedSpan span(trace, "finalize");
  if (accountant->steps() > 0) {
    const sepriv::DpBound bound = accountant->GetEpsilon(cfg.delta);
    result.spent_epsilon = bound.epsilon;
    result.best_rdp_order = bound.best_order;
    result.spent_delta = accountant->GetDelta(cfg.epsilon);
  }
  return sepriv::OkStatus();
}

}  // namespace

BufferPoolStats GraphPoolTotal(const LayerCounters& c) {
  BufferPoolStats t;
  for (const BufferPoolStats* s :
       {&c.graph_pool_degree_scan, &c.graph_pool_prox, &c.graph_pool_alg1}) {
    t.hits += s->hits;
    t.misses += s->misses;
    t.evictions += s->evictions;
    t.prefetch_loads += s->prefetch_loads;
    t.prefetch_dropped += s->prefetch_dropped;
    t.read_retries += s->read_retries;
    t.discards += s->discards;
  }
  return t;
}

Status TracedTrain(const sepriv::Graph& graph, sepriv::ProximityKind kind,
                   const SePrivGEmbConfig& cfg,
                   const sepriv::ProximityOptions& prox_opts, Trace& trace,
                   LayerCounters& c, TrainResult* out) {
  RequireReplicatedConfig(cfg);
  ScopedSpan op(trace, "op");
  c.edges = graph.num_edges();

  // The constructor: structure-preference precompute.
  std::vector<double> weights;
  double min_weight = 0.0;
  {
    ScopedSpan span(trace, "prox.compute");
    const auto provider = sepriv::MakeProximity(kind, graph, prox_opts);
    sepriv::EdgeProximity prox = sepriv::CachedEdgeProximities(
        graph, *provider, prox_opts, cfg.ResolvedThreads(),
        cfg.ResolvedProximityCachePath());
    if (cfg.normalize_proximity) {
      weights = std::move(prox.normalized);
      min_weight = prox.normalized_min_positive;
    } else {
      weights = std::move(prox.values);
      min_weight = prox.min_positive;
    }
  }

  // Train(): Algorithm 1, model init, epochs.
  Rng rng(cfg.seed);
  TrainResult result;
  result.min_proximity = min_weight;
  const uint64_t sampler_seed = rng.Next();
  std::optional<sepriv::SubgraphSampler> sampler;
  {
    ScopedSpan span(trace, "sample.alg1");
    sampler.emplace(graph, cfg.negatives, sampler_seed,
                    sepriv::EdgeOrientation::kRandom,
                    cfg.negatives_exclude_neighbors);
  }
  {
    ScopedSpan span(trace, "init");
    result.model = sepriv::SkipGramModel(graph.num_nodes(), cfg.dim, rng);
  }
  sepriv::InMemorySampleSource source(sampler->All(), weights);
  SEPRIV_RETURN_IF_ERROR(TracedEpochs(cfg, graph.num_nodes(), min_weight,
                                      source, rng, trace, c, result));
  *out = std::move(result);
  return sepriv::OkStatus();
}

Status TracedTrainOutOfCore(sepriv::SsdGraphStore& store,
                            const SePrivGEmbConfig& cfg,
                            const sepriv::OutOfCoreTrainOptions& ooc,
                            Trace& trace, LayerCounters& c,
                            TrainResult* out) {
  RequireReplicatedConfig(cfg);
  SEPRIV_CHECK(!ooc.work_dir.empty(), "work_dir is required");
  ScopedSpan op(trace, "op");
  const size_t n = store.num_nodes();
  const size_t num_edges = store.num_edges();
  const size_t num_shards = store.num_shards();
  c.edges = num_edges;
  c.graph_page_bytes = store.pool().page_size();
  ::mkdir(ooc.work_dir.c_str(), 0755);

  sepriv::ThreadPool pool(cfg.ResolvedThreads());
  const std::string cache_root = ooc.work_dir + "/proxcache";
  const uint64_t graph_fp = store.fingerprint();
  const sepriv::ProximityOptions prox_opts;

  BufferPoolStats mark = store.pool().stats();
  const auto phase_stats = [&](BufferPoolStats* into) {
    const BufferPoolStats now = store.pool().stats();
    *into = StatsDelta(now, mark);
    mark = now;
  };

  std::vector<double> degrees(n, 0.0);
  {
    ScopedSpan span(trace, "ooc.degree_scan");
    for (size_t s = 0; s < num_shards; ++s) {
      if (s + 1 < num_shards) store.Prefetch(s + 1);
      PinnedShard pin;
      SEPRIV_RETURN_IF_ERROR(store.TryPin(s, &pin));
      for (NodeId u = pin->node_begin; u < pin->node_end; ++u) {
        degrees[u] = static_cast<double>(pin->Degree(u));
      }
    }
  }
  phase_stats(&c.graph_pool_degree_scan);
  sepriv::DegreeVectorProximity provider(std::move(degrees), num_edges);

  sepriv::ProximityFinalizer fin;
  {
    ScopedSpan span(trace, "prox.compute");
    for (size_t s = 0; s < num_shards; ++s) {
      if (s + 1 < num_shards) store.Prefetch(s + 1);
      PinnedShard pin;
      SEPRIV_RETURN_IF_ERROR(store.TryPin(s, &pin));
      const sepriv::ShardProximity sp = sepriv::CachedShardProximities(
          pin.view(), s, graph_fp, provider, prox_opts, pool, cache_root);
      for (size_t k = 0; k < sp.forward.size(); ++k) {
        fin.Accumulate(0.5 * (sp.forward[k] + sp.backward[k]));
      }
    }
    fin.Seal();
  }
  phase_stats(&c.graph_pool_prox);
  SEPRIV_CHECK(fin.count() == num_edges, "proximity pass lost edges");
  const double min_weight = cfg.normalize_proximity
                                ? fin.normalized_min_positive()
                                : fin.min_positive();

  Rng rng(cfg.seed);
  TrainResult result;
  result.min_proximity = min_weight;
  const uint64_t sampler_seed = rng.Next();
  {
    ScopedSpan span(trace, "init");
    result.model = sepriv::SkipGramModel(n, cfg.dim, rng);
  }

  const std::string samples_path = ooc.work_dir + "/samples.bin";
  std::unique_ptr<sepriv::SampleStore> samples;
  {
    ScopedSpan span(trace, "sample.alg1");
    CountingStoreOracle oracle(store, &c.oracle_shard_switches);
    sepriv::SubgraphGenerator gen(oracle, cfg.negatives, sampler_seed,
                                  sepriv::EdgeOrientation::kRandom,
                                  cfg.negatives_exclude_neighbors);
    auto writer = sepriv::SampleStoreWriter::Create(
        samples_path, static_cast<size_t>(cfg.negatives),
        ooc.sample_page_bytes > 0 ? ooc.sample_page_bytes
                                  : sepriv::kSampleStorePageBytes);
    if (writer == nullptr) {
      return sepriv::IoError("cannot create sample store " + samples_path);
    }
    sepriv::Subgraph scratch;
    bool ok = true;
    for (size_t s = 0; s < num_shards; ++s) {
      if (s + 1 < num_shards) store.Prefetch(s + 1);
      PinnedShard pin;
      SEPRIV_RETURN_IF_ERROR(store.TryPin(s, &pin));
      const sepriv::ShardView& view = pin.view();
      const sepriv::ShardProximity sp = sepriv::CachedShardProximities(
          view, s, graph_fp, provider, prox_opts, pool, cache_root);
      view.ForEachEdge([&](size_t e, NodeId u, NodeId v) {
        const size_t k = e - view.edge_begin;
        const double sym = 0.5 * (sp.forward[k] + sp.backward[k]);
        const double w =
            cfg.normalize_proximity ? fin.Normalized(sym) : fin.Value(sym);
        gen.Next(u, v, static_cast<uint32_t>(e), scratch);
        ok = writer->Append(scratch, w) && ok;
      });
    }
    ok = writer->Finish() && ok;
    if (!ok) {
      return writer->status().ok()
                 ? sepriv::IoError("sample store write failed (" +
                                   samples_path + ")")
                 : writer->status();
    }
    samples = sepriv::SampleStore::Open(samples_path, ooc.sample_pool_pages);
    if (samples == nullptr) {
      return sepriv::CorruptionError("cannot open sample store " +
                                     samples_path);
    }
  }
  phase_stats(&c.graph_pool_alg1);
  SEPRIV_CHECK(samples->size() == num_edges, "sample store size mismatch");
  struct stat st {};
  if (::stat(samples_path.c_str(), &st) == 0) {
    c.sample_store_bytes = static_cast<uint64_t>(st.st_size);
  }
  c.sample_page_bytes = samples->pool().page_size();

  SEPRIV_RETURN_IF_ERROR(TracedEpochs(cfg, n, min_weight, *samples, rng,
                                      trace, c, result));
  c.sample_pool = samples->pool().stats();
  samples.reset();
  if (!ooc.keep_sample_store) std::remove(samples_path.c_str());
  *out = std::move(result);
  return sepriv::OkStatus();
}

}  // namespace perfbench
