// Traced replicas of the two training entry points.
//
// Each replica calls the same public layer functions as its entry point in
// core/se_privgemb.cc, in the same order and with the same RNG consumption,
// and wraps every call in a span. The benchmark checks every replica op's
// digest against the untraced entry point, so the per-layer numbers always
// describe the program the end-to-end numbers measure. The replicas cover the
// configurations the workloads run (non-zero perturbation, uniform positive
// sampling, float64 storage, no checkpointing) and refuse any other.
//
// Span tree of one op (top-level spans are the children of "op"):
//   op
//     ooc.degree_scan        (out-of-core only)
//     prox.compute
//     sample.alg1            (out-of-core: includes the warm proximity
//                             reload, sample-store writes and open)
//     init
//     engine.init
//     epochs
//       epoch.batch, epoch.accumulate, epoch.noise, epoch.apply  (per epoch)
//     finalize

#ifndef PERFBENCH_REPLICA_H_
#define PERFBENCH_REPLICA_H_

#include <cstdint>
#include <vector>

#include "core/se_privgemb.h"
#include "graph/shard.h"
#include "trace.h"
#include "util/buffer_pool.h"

namespace perfbench {

/// Work counts the replicas read from public counters while they run.
struct LayerCounters {
  uint64_t edges = 0;                // |E| through the proximity pass / Alg. 1
  uint64_t samples_accumulated = 0;  // batch samples through the engine
  uint64_t noise_draws = 0;          // Gaussian draws: touched rows × dim
  std::vector<double> step_ms;       // wall time of each epoch
  double engine_rss_mb = 0.0;        // RSS growth over engine init + epoch 0
  uint64_t oracle_shard_switches = 0;

  // Graph-pool activity attributed to the phase that caused it.
  sepriv::BufferPoolStats graph_pool_degree_scan;
  sepriv::BufferPoolStats graph_pool_prox;
  sepriv::BufferPoolStats graph_pool_alg1;
  sepriv::BufferPoolStats sample_pool;
  uint64_t graph_page_bytes = 0;
  uint64_t sample_page_bytes = 0;
  uint64_t sample_store_bytes = 0;   // size of the finished sample store
};

/// Sum of the three graph-pool phase snapshots.
sepriv::BufferPoolStats GraphPoolTotal(const LayerCounters& c);

/// Replica of SePrivGEmb(graph, kind, cfg, prox_opts) followed by Train().
sepriv::Status TracedTrain(const sepriv::Graph& graph,
                           sepriv::ProximityKind kind,
                           const sepriv::SePrivGEmbConfig& cfg,
                           const sepriv::ProximityOptions& prox_opts,
                           Trace& trace, LayerCounters& counters,
                           sepriv::TrainResult* out);

/// Replica of TryTrainOutOfCore(store, kPreferentialAttachment, cfg, ooc).
sepriv::Status TracedTrainOutOfCore(sepriv::SsdGraphStore& store,
                                    const sepriv::SePrivGEmbConfig& cfg,
                                    const sepriv::OutOfCoreTrainOptions& ooc,
                                    Trace& trace, LayerCounters& counters,
                                    sepriv::TrainResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_REPLICA_H_
