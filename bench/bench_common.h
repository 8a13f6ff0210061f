// Shared plumbing for the bench/ binaries that regenerate the paper's tables
// and figures (see DESIGN.md §4 for the experiment index).
//
// Every binary honours two profiles:
//   FAST (default)      — reduced dataset scales / repeats / dimensions so
//                         `for b in build/bench/*; do $b; done` completes in
//                         minutes on a laptop;
//   FULL (SEPRIV_FULL=1)— paper-scale parameters (§VI-A).
// Either way the binaries print the same rows/series the paper reports; the
// SHAPE of the results (orderings, trends, crossovers) is the reproduction
// target, not absolute values.

#ifndef SEPRIVGEMB_BENCH_BENCH_COMMON_H_
#define SEPRIVGEMB_BENCH_BENCH_COMMON_H_

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/se_privgemb.h"
#include "eval/metrics.h"
#include "graph/datasets.h"
#include "linalg/matrix.h"
#include "proximity/proximity.h"
#include "runner/experiment_runner.h"

namespace sepriv::bench {

struct Profile {
  bool full = false;
  int repeats = 3;            // paper: 10
  size_t dim = 32;            // paper: r = 128
  size_t se_epochs = 200;     // paper: 200 (structural equivalence)
  size_t lp_epochs = 400;     // paper: 2000 (link prediction)
  size_t baseline_epochs = 100;
  size_t strucequ_pairs = 50000;
};

/// Reads SEPRIV_FULL from the environment.
Profile GetProfile();

/// Stand-in graph for `id` at the profile's scale (DESIGN.md §3).
Graph MakeBenchGraph(DatasetId id, const Profile& profile);

/// Per-edge proximities for a preference kind (walks sampled for the large
/// stand-ins in FULL mode).
EdgeProximity BuildEdgeProximity(const Graph& graph, ProximityKind kind,
                                 const Profile& profile);

/// Paper §VI-A default trainer configuration at profile scale.
SePrivGEmbConfig DefaultConfig(const Profile& profile);

/// StrucEqu with the profile's pair budget.
double StrucEquOf(const Graph& graph, const Matrix& embedding,
                  const Profile& profile);

/// "0.4599±0.0530"-style cell.
std::string Cell(const RunSummary& s);

/// Prints the standard header (profile, datasets, reproduction note).
void PrintBenchHeader(const std::string& table_name,
                      const std::string& paper_ref, const Profile& profile);

// --- The eight methods of Figs. 3 and 4 ------------------------------------

enum class Method {
  kDpgGan,
  kDpgVae,
  kGap,
  kProGap,
  kSeGEmbDw,       // non-private, DeepWalk preference
  kSePrivGEmbDw,   // private,     DeepWalk preference
  kSeGEmbDeg,      // non-private, degree preference
  kSePrivGEmbDeg,  // private,     degree preference
};

const std::vector<Method>& AllMethods();
std::string MethodName(Method m);

/// True for the non-private SE variants, whose result does not depend on
/// the privacy budget (they train one cell group per ε row).
bool EpsilonIndependent(Method m);

/// Shared scaffolding of the Fig. 3 / Fig. 4 binaries: runs the full
/// (method x ε x repeat) family as ONE grid on the experiment runner —
/// collapsing ε-independent methods to a single cell group — and returns
/// one RunSummary per (method, ε), indexed
/// `method_index * epsilons.size() + eps_index` in AllMethods() order
/// (ε-independent methods replicated across their row). `cell` computes
/// one run's metric; seeds follow the legacy 1000 + 37·r schedule.
std::vector<RunSummary> RunMethodEpsilonGrid(
    std::span<const double> epsilons, const Profile& profile,
    const std::function<double(Method method, double eps,
                               const runner::CellContext& ctx)>& cell);

/// Published matrices of a method. The SE methods publish both skip-gram
/// matrices (Definition 5); the baselines publish a single embedding, so
/// `out` aliases `in` and pair scoring degenerates to the symmetric inner
/// product.
struct PublishedEmbedding {
  Matrix in;
  Matrix out;
};

/// Embeds `graph` with the given method at privacy budget `epsilon`.
/// `dw`/`deg` are precomputed per-edge proximities (borrowed by the SE
/// trainers, shared across methods and concurrent cells); `epochs` is the
/// training budget. `num_threads` is the inner-engine thread budget (0 =
/// auto; experiment-runner cells pass CellContext::inner_threads).
PublishedEmbedding EmbedWithMethod(Method method, const Graph& graph,
                                   const EdgeProximity& dw,
                                   const EdgeProximity& deg, double epsilon,
                                   size_t epochs, uint64_t seed,
                                   const Profile& profile,
                                   size_t num_threads = 0);

}  // namespace sepriv::bench

#endif  // SEPRIVGEMB_BENCH_BENCH_COMMON_H_
