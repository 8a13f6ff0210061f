#include "bench/bench_common.h"

#include <cstdio>
#include <cstdlib>

#include "baselines/embedder.h"
#include "eval/strucequ.h"
#include "proximity/proximity_engine.h"
#include "util/check.h"
#include "util/env.h"

namespace sepriv::bench {

Profile GetProfile() {
  Profile p;
  const std::string env = GetStringEnv("SEPRIV_FULL");
  p.full = !env.empty() && env[0] == '1';
  if (p.full) {
    p.repeats = 10;
    p.dim = 128;
    p.se_epochs = 200;
    p.lp_epochs = 2000;
    p.baseline_epochs = 200;
    p.strucequ_pairs = 2000000;
  }
  return p;
}

Graph MakeBenchGraph(DatasetId id, const Profile& profile) {
  if (profile.full) return MakeDataset(id, 1.0);
  switch (id) {
    case DatasetId::kChameleon: return MakeDataset(id, 0.15);
    case DatasetId::kPpi: return MakeDataset(id, 0.10);
    case DatasetId::kPower: return MakeDataset(id, 0.20);
    case DatasetId::kArxiv: return MakeDataset(id, 0.15);
    case DatasetId::kBlogCatalog: return MakeDataset(id, 0.04);
    case DatasetId::kDblp: return MakeDataset(id, 0.001);
  }
  SEPRIV_CHECK(false, "unknown dataset");
  return Graph();
}

EdgeProximity BuildEdgeProximity(const Graph& graph, ProximityKind kind,
                                 const Profile& profile) {
  ProximityOptions opts;
  // Exact DeepWalk rows are affordable below ~50k adjacency pushes per row;
  // the huge FULL-mode stand-ins switch to the walk-sampled estimator.
  if (kind == ProximityKind::kDeepWalk && profile.full &&
      graph.num_edges() > 200000) {
    kind = ProximityKind::kDeepWalkSampled;
    opts.dw_walks_per_node = 200;
  }
  const auto provider = MakeProximity(kind, graph, opts);
  // Parallel precompute with cache-through persistence: every sweep binary
  // recomputes a given (graph, preference) pair at most once per machine
  // when SEPRIV_PROXIMITY_CACHE points at a directory.
  const SePrivGEmbConfig defaults;
  return CachedEdgeProximities(graph, *provider, opts,
                               defaults.ResolvedThreads(),
                               defaults.ResolvedProximityCachePath());
}

SePrivGEmbConfig DefaultConfig(const Profile& profile) {
  SePrivGEmbConfig cfg;  // paper §VI-A defaults baked into the struct
  cfg.dim = profile.dim;
  cfg.max_epochs = profile.se_epochs;
  cfg.track_loss = false;
  return cfg;
}

double StrucEquOf(const Graph& graph, const Matrix& embedding,
                  const Profile& profile) {
  StrucEquOptions opts;
  opts.max_pairs = profile.strucequ_pairs;
  return StrucEqu(graph, embedding, opts);
}

std::string Cell(const RunSummary& s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f±%.4f", s.mean, s.stddev);
  return buf;
}

void PrintBenchHeader(const std::string& table_name,
                      const std::string& paper_ref, const Profile& profile) {
  std::printf("=============================================================\n");
  std::printf("%s  (reproduces %s)\n", table_name.c_str(), paper_ref.c_str());
  std::printf("profile: %s  repeats=%d dim=%zu se_epochs=%zu lp_epochs=%zu\n",
              profile.full ? "FULL (paper scale)" : "FAST (set SEPRIV_FULL=1 for paper scale)",
              profile.repeats, profile.dim, profile.se_epochs,
              profile.lp_epochs);
  std::printf("datasets: synthetic stand-ins (DESIGN.md §3); compare SHAPES, "
              "not absolute values\n");
  std::printf("=============================================================\n");
}

const std::vector<Method>& AllMethods() {
  static const std::vector<Method> kMethods = {
      Method::kDpgGan,      Method::kDpgVae,       Method::kGap,
      Method::kProGap,      Method::kSeGEmbDw,     Method::kSePrivGEmbDw,
      Method::kSeGEmbDeg,   Method::kSePrivGEmbDeg,
  };
  return kMethods;
}

bool EpsilonIndependent(Method m) {
  return m == Method::kSeGEmbDw || m == Method::kSeGEmbDeg;
}

std::vector<RunSummary> RunMethodEpsilonGrid(
    std::span<const double> epsilons, const Profile& profile,
    const std::function<double(Method method, double eps,
                               const runner::CellContext& ctx)>& cell) {
  // One cell group per (method, ε) — collapsed to a single group for the
  // ε-independent methods — times `repeats` cells each, executed as one
  // flat grid so the whole figure runs "slowest cell / cores".
  struct Group {
    Method method;
    double eps;
  };
  std::vector<Group> groups;
  std::vector<size_t> method_first_group;  // aligned with AllMethods()
  for (Method method : AllMethods()) {
    method_first_group.push_back(groups.size());
    if (EpsilonIndependent(method)) {
      groups.push_back({method, epsilons[0]});
    } else {
      for (double eps : epsilons) groups.push_back({method, eps});
    }
  }

  const auto repeats = static_cast<size_t>(profile.repeats);
  std::vector<runner::ExperimentCell> cells;
  cells.reserve(groups.size() * repeats);
  for (const Group& g : groups) {
    for (size_t r = 0; r < repeats; ++r) {
      cells.push_back({MethodName(g.method) + "/eps" + std::to_string(g.eps) +
                           "/r" + std::to_string(r),
                       static_cast<uint64_t>(1000 + 37 * r),
                       [&cell, g](const runner::CellContext& ctx) {
                         return cell(g.method, g.eps, ctx);
                       }});
    }
  }
  const std::vector<double> results = runner::RunCells(cells);

  std::vector<RunSummary> out(AllMethods().size() * epsilons.size());
  size_t mi = 0;
  for (Method method : AllMethods()) {
    const size_t first = method_first_group[mi];
    for (size_t ei = 0; ei < epsilons.size(); ++ei) {
      const size_t gi = first + (EpsilonIndependent(method) ? 0 : ei);
      const std::vector<double> runs(
          results.begin() + static_cast<ptrdiff_t>(gi * repeats),
          results.begin() + static_cast<ptrdiff_t>((gi + 1) * repeats));
      out[mi * epsilons.size() + ei] = Summarize(runs);
    }
    ++mi;
  }
  return out;
}

std::string MethodName(Method m) {
  switch (m) {
    case Method::kDpgGan: return "DPGGAN";
    case Method::kDpgVae: return "DPGVAE";
    case Method::kGap: return "GAP";
    case Method::kProGap: return "ProGAP";
    case Method::kSeGEmbDw: return "SE-GEmbDW";
    case Method::kSePrivGEmbDw: return "SE-PrivGEmbDW";
    case Method::kSeGEmbDeg: return "SE-GEmbDeg";
    case Method::kSePrivGEmbDeg: return "SE-PrivGEmbDeg";
  }
  return "?";
}

namespace {

PublishedEmbedding RunSeTrainer(const Graph& graph, const EdgeProximity& prox,
                                bool is_private, double epsilon, size_t epochs,
                                uint64_t seed, const Profile& profile,
                                size_t num_threads) {
  SePrivGEmbConfig cfg = DefaultConfig(profile);
  cfg.max_epochs = epochs;
  cfg.epsilon = epsilon;
  cfg.seed = seed;
  cfg.num_threads = num_threads;
  cfg.perturbation = is_private ? PerturbationStrategy::kNonZero
                                : PerturbationStrategy::kNone;
  SePrivGEmb trainer(graph, prox, cfg);  // borrows the shared table
  TrainResult result = trainer.Train();
  return {std::move(result.model.w_in), std::move(result.model.w_out)};
}

PublishedEmbedding RunBaseline(BaselineKind kind, const Graph& graph,
                               double epsilon, size_t epochs, uint64_t seed,
                               const Profile& profile) {
  EmbedderOptions opts;
  opts.dim = profile.dim;
  opts.epsilon = epsilon;
  opts.max_epochs = epochs;
  opts.agg_epochs = profile.full ? 30 : 10;
  opts.batch_size = 128;
  opts.feature_dim = profile.full ? 32 : 8;
  opts.hidden_dim = profile.full ? 64 : 16;
  opts.seed = seed;
  Matrix emb = MakeBaseline(kind, opts)->Embed(graph).embedding;
  Matrix copy = emb;
  return {std::move(emb), std::move(copy)};
}

}  // namespace

PublishedEmbedding EmbedWithMethod(Method method, const Graph& graph,
                                   const EdgeProximity& dw,
                                   const EdgeProximity& deg, double epsilon,
                                   size_t epochs, uint64_t seed,
                                   const Profile& profile,
                                   size_t num_threads) {
  switch (method) {
    case Method::kDpgGan:
      return RunBaseline(BaselineKind::kDpgGan, graph, epsilon,
                         profile.baseline_epochs, seed, profile);
    case Method::kDpgVae:
      return RunBaseline(BaselineKind::kDpgVae, graph, epsilon,
                         profile.baseline_epochs, seed, profile);
    case Method::kGap:
      return RunBaseline(BaselineKind::kGap, graph, epsilon,
                         profile.baseline_epochs, seed, profile);
    case Method::kProGap:
      return RunBaseline(BaselineKind::kProGap, graph, epsilon,
                         profile.baseline_epochs, seed, profile);
    case Method::kSeGEmbDw:
      return RunSeTrainer(graph, dw, false, epsilon, epochs, seed, profile,
                          num_threads);
    case Method::kSePrivGEmbDw:
      return RunSeTrainer(graph, dw, true, epsilon, epochs, seed, profile,
                          num_threads);
    case Method::kSeGEmbDeg:
      return RunSeTrainer(graph, deg, false, epsilon, epochs, seed, profile,
                          num_threads);
    case Method::kSePrivGEmbDeg:
      return RunSeTrainer(graph, deg, true, epsilon, epochs, seed, profile,
                          num_threads);
  }
  SEPRIV_CHECK(false, "unknown method");
  return {};
}

}  // namespace sepriv::bench
