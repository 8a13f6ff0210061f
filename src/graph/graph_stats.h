// sepriv-lint: allow(test-only-module): only tests/graph_stats_test.cc reaches it; ROADMAP Direction 7 stage 3 deletes it
// Descriptive graph statistics: clustering, triangles, degree histogram,
// components and a diameter estimate. No library, bench or example code
// computes them.

#ifndef SEPRIVGEMB_GRAPH_GRAPH_STATS_H_
#define SEPRIVGEMB_GRAPH_GRAPH_STATS_H_

#include <cstddef>
#include <vector>

#include "graph/graph.h"

namespace sepriv {

/// Global clustering coefficient (transitivity): 3·triangles / wedges.
double GlobalClusteringCoefficient(const Graph& graph);

/// Average of per-node local clustering coefficients (nodes of degree < 2
/// contribute 0).
double AverageLocalClustering(const Graph& graph);

/// Number of triangles in the graph.
size_t TriangleCount(const Graph& graph);

/// Degree histogram: result[d] = #nodes of degree d.
std::vector<size_t> DegreeHistogram(const Graph& graph);

/// Connected components via BFS; returns per-node component ids in [0, k).
std::vector<uint32_t> ConnectedComponents(const Graph& graph);

/// Number of connected components.
size_t ComponentCount(const Graph& graph);

/// Size of the largest connected component.
size_t LargestComponentSize(const Graph& graph);

/// Exact eccentricity-based diameter is O(|V|·|E|); this estimates the
/// diameter with `probes` double-sweep BFS probes (exact on trees, a lower
/// bound in general).
size_t EstimateDiameter(const Graph& graph, int probes = 4,
                        uint64_t seed = 17);

}  // namespace sepriv

#endif  // SEPRIVGEMB_GRAPH_GRAPH_STATS_H_
