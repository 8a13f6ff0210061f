#include "proximity/walk_proximity.h"

#include <algorithm>
#include <cstdio>

#include "util/check.h"

namespace sepriv {
namespace {

constexpr uint32_t kNoRank = ~uint32_t{0};  // not in the deferred frontier

}  // namespace

RowCachedProximity::RowCachedProximity(const Graph& graph)
    : graph_(graph), row_(graph.num_nodes(), 0.0) {
  touched_.reserve(1024);
}

double RowCachedProximity::At(NodeId i, NodeId j) const {
  SEPRIV_CHECK(i < graph_.num_nodes() && j < graph_.num_nodes(),
               "node out of range: (%u,%u) vs |V|=%zu", i, j,
               graph_.num_nodes());
  if (!has_cache_ || cached_source_ != i) SwitchRow(i);
  if (!deferred_) return row_[j];
  return row_[j] + last_scale_ * PullLastStep(j);
}

void RowCachedProximity::SwitchRow(NodeId source) const {
  if (touched_.size() > row_.size() / 4) {
    std::fill(row_.begin(), row_.end(), 0.0);
  } else {
    for (NodeId j : touched_) row_[j] = 0.0;  // sparse clear
  }
  touched_.clear();
  if (ranked_) {
    for (NodeId k : scratch_.cur_nz) frontier_rank_[k] = kNoRank;
    ranked_ = false;
  }
  deferred_ = false;
  scratch_.Reset();
  ComputeRow(source);
  cached_source_ = source;
  has_cache_ = true;
}

void RowCachedProximity::DeferLastStep(double scale) const {
  const std::vector<NodeId>& frontier = scratch_.cur_nz;
  ranked_ = !std::is_sorted(frontier.begin(), frontier.end());
  if (ranked_) {
    if (frontier_rank_.empty()) {
      frontier_rank_.assign(graph_.num_nodes(), kNoRank);
    }
    for (size_t r = 0; r < frontier.size(); ++r) {
      frontier_rank_[frontier[r]] = static_cast<uint32_t>(r);
    }
  }
  last_scale_ = scale;
  deferred_ = true;
}

double RowCachedProximity::PullLastStep(NodeId j) const {
  const std::vector<NodeId>& frontier = scratch_.cur_nz;
  const std::vector<double>& term = scratch_.cur;  // +0.0 off the frontier
  const auto nbrs = graph_.Neighbors(j);
  double sum = 0.0;
  if (frontier.size() < nbrs.size()) {
    for (NodeId k : frontier) {
      if (graph_.HasEdge(k, j)) sum += term[k];
    }
    return sum;
  }
  if (!ranked_) {
    // An ascending frontier meets the ascending N(j) in push order, and the
    // +0.0 term of every other neighbour leaves the sum unchanged.
    for (NodeId k : nbrs) sum += term[k];
    return sum;
  }
  hits_.clear();
  for (NodeId k : nbrs) {
    if (frontier_rank_[k] != kNoRank) hits_.push_back(frontier_rank_[k]);
  }
  std::sort(hits_.begin(), hits_.end());
  for (uint32_t r : hits_) sum += term[frontier[r]];
  return sum;
}

void RowCachedProximity::PushScratch::Reset() {
  for (NodeId k : cur_nz) cur[k] = 0.0;
  cur_nz.clear();
}

RowCachedProximity::PushScratch& RowCachedProximity::Scratch() const {
  if (scratch_.cur.empty()) {
    const size_t n = graph_.num_nodes();
    scratch_.cur.assign(n, 0.0);
    scratch_.next.assign(n, 0.0);
  }
  return scratch_;
}

// --- Katz -------------------------------------------------------------------

KatzProximity::KatzProximity(const Graph& graph, int max_length, double beta)
    : RowCachedProximity(graph), max_length_(max_length), beta_(beta) {
  SEPRIV_CHECK(max_length_ >= 1, "Katz needs max_length >= 1");
  SEPRIV_CHECK(beta_ > 0.0, "Katz needs beta > 0");
}

std::string KatzProximity::Name() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "katz(L=%d,beta=%.3f)", max_length_, beta_);
  return buf;
}

void KatzProximity::ComputeRow(NodeId source) const {
  // cur holds (A^l)_source as a sparse vector over a dense scratch. Steps
  // 1..L-1 go into the row; step L is pulled by At(), with term cur[k].
  PushScratch& scratch = Scratch();
  auto& [cur, next, cur_nz, next_nz] = scratch;
  cur[source] = 1.0;
  cur_nz.push_back(source);
  double beta_pow = 1.0;
  for (int l = 1; l < max_length_; ++l) {
    beta_pow *= beta_;
    for (NodeId k : cur_nz) {
      const double mass = cur[k];
      for (NodeId u : graph_.Neighbors(k)) {
        if (next[u] == 0.0) next_nz.push_back(u);
        next[u] += mass;
      }
      cur[k] = 0.0;
    }
    for (NodeId u : next_nz) {
      if (row_[u] == 0.0) Touch(u);
      row_[u] += beta_pow * next[u];
    }
    cur_nz.swap(next_nz);
    cur.swap(next);
    next_nz.clear();
  }
  beta_pow *= beta_;
  DeferLastStep(beta_pow);
}

// --- Personalized PageRank ---------------------------------------------------

PersonalizedPageRankProximity::PersonalizedPageRankProximity(const Graph& graph,
                                                             double alpha,
                                                             int iterations)
    : RowCachedProximity(graph), alpha_(alpha), iterations_(iterations) {
  SEPRIV_CHECK(alpha_ > 0.0 && alpha_ < 1.0, "PPR alpha must be in (0,1)");
  SEPRIV_CHECK(iterations_ >= 1, "PPR needs iterations >= 1");
}

std::string PersonalizedPageRankProximity::Name() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "ppr(alpha=%.2f,iters=%d)", alpha_,
                iterations_);
  return buf;
}

void PersonalizedPageRankProximity::ComputeRow(NodeId source) const {
  PushScratch& scratch = Scratch();
  auto& [r, next, r_nz, next_nz] = scratch;
  r[source] = 1.0;
  r_nz.push_back(source);
  for (int it = 0; it < iterations_; ++it) {
    for (NodeId k : r_nz) {
      const size_t deg = graph_.Degree(k);
      if (deg == 0) {
        r[k] = 0.0;
        continue;
      }
      const double push = (1.0 - alpha_) * r[k] / static_cast<double>(deg);
      for (NodeId u : graph_.Neighbors(k)) {
        if (next[u] == 0.0) next_nz.push_back(u);
        next[u] += push;
      }
      r[k] = 0.0;
    }
    if (next[source] == 0.0) next_nz.push_back(source);
    next[source] += alpha_;
    r.swap(next);
    r_nz.swap(next_nz);
    next_nz.clear();
  }
  for (NodeId u : r_nz) {
    if (r[u] != 0.0) {
      row_[u] = r[u];
      Touch(u);
    }
  }
}

// --- DeepWalk (exact) --------------------------------------------------------

DeepWalkProximity::DeepWalkProximity(const Graph& graph, int window)
    : RowCachedProximity(graph), window_(window) {
  SEPRIV_CHECK(window_ >= 1, "DeepWalk proximity needs window >= 1");
}

std::string DeepWalkProximity::Name() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "deepwalk(T=%d)", window_);
  return buf;
}

void DeepWalkProximity::ComputeRow(NodeId source) const {
  // Steps 1..T-1 go into the row; step T is pulled by At(), with term
  // cur[k] / d_k.
  PushScratch& scratch = Scratch();
  auto& [cur, next, cur_nz, next_nz] = scratch;
  cur[source] = 1.0;
  cur_nz.push_back(source);
  const double inv_t = 1.0 / static_cast<double>(window_);
  for (int w = 1; w < window_; ++w) {
    for (NodeId k : cur_nz) {
      const size_t deg = graph_.Degree(k);
      if (deg == 0) {
        cur[k] = 0.0;
        continue;
      }
      const double push = cur[k] / static_cast<double>(deg);
      for (NodeId u : graph_.Neighbors(k)) {
        if (next[u] == 0.0) next_nz.push_back(u);
        next[u] += push;
      }
      cur[k] = 0.0;
    }
    for (NodeId u : next_nz) {
      if (row_[u] == 0.0) Touch(u);
      row_[u] += inv_t * next[u];
    }
    cur.swap(next);
    cur_nz.swap(next_nz);
    next_nz.clear();
  }
  // An isolated node is in no N(j), so its term is never read.
  for (NodeId k : cur_nz) {
    const size_t deg = graph_.Degree(k);
    if (deg != 0) cur[k] /= static_cast<double>(deg);
  }
  DeferLastStep(inv_t);
}

// --- DeepWalk (sampled) ------------------------------------------------------

SampledDeepWalkProximity::SampledDeepWalkProximity(const Graph& graph,
                                                   int window,
                                                   int walks_per_node,
                                                   uint64_t seed)
    : RowCachedProximity(graph),
      window_(window),
      walks_per_node_(walks_per_node),
      seed_(seed) {
  SEPRIV_CHECK(window_ >= 1, "sampled DeepWalk needs window >= 1");
  SEPRIV_CHECK(walks_per_node_ >= 1, "sampled DeepWalk needs walks >= 1");
}

std::string SampledDeepWalkProximity::Name() const {
  // The seed changes At() (it keys the walk substreams), so it must appear
  // in the name: Name() is part of the persistent-cache key, and two
  // directly constructed providers differing only in seed may not alias.
  char buf[96];
  std::snprintf(buf, sizeof(buf), "deepwalk_sampled(T=%d,R=%d,seed=%llu)",
                window_, walks_per_node_,
                static_cast<unsigned long long>(seed_));
  return buf;
}

void SampledDeepWalkProximity::ComputeRow(NodeId source) const {
  // Estimator: p̂_ij = (# visits of j at steps 1..T over R walks) / (R·T);
  // unbiased for (1/T) Σ_w (D^{-1}A)^w _ij.
  const double unit = 1.0 / (static_cast<double>(walks_per_node_) *
                             static_cast<double>(window_));
  // Keyed per-source substream (Rng::Fork(stream) discipline): the walk
  // stream depends only on (seed, source), never on query order or on which
  // worker computes the row, so At(i,j) is repeatable across calls AND the
  // parallel engine's sharded clones reproduce the serial output bit for bit.
  uint64_t row_seed = seed_ ^ (static_cast<uint64_t>(source) + 1) * 0x9e3779b97f4a7c15ULL;
  Rng rng(SplitMix64(row_seed));
  for (int r = 0; r < walks_per_node_; ++r) {
    NodeId cur = source;
    for (int step = 0; step < window_; ++step) {
      const auto nbrs = graph_.Neighbors(cur);
      if (nbrs.empty()) break;
      cur = nbrs[rng.UniformInt(nbrs.size())];
      if (row_[cur] == 0.0) Touch(cur);
      row_[cur] += unit;
    }
  }
}

}  // namespace sepriv
