#include "core/config.h"

#include <cstdio>
#include <cstring>

#include "util/env.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sepriv {
namespace {

const char* PerturbationName(PerturbationStrategy s) {
  switch (s) {
    case PerturbationStrategy::kNone: return "none";
    case PerturbationStrategy::kNaive: return "naive";
    case PerturbationStrategy::kNonZero: return "non-zero";
  }
  return "?";
}

}  // namespace

size_t SePrivGEmbConfig::ResolvedThreads() const {
  if (num_threads > 0) return num_threads;
  return ThreadPool::ResolveAutoThreads();
}

std::string SePrivGEmbConfig::ResolvedProximityCachePath() const {
  if (proximity_cache_path == "-") return "";  // forced off
  if (!proximity_cache_path.empty()) return proximity_cache_path;
  // The one reader of SEPRIV_PROXIMITY_CACHE.
  return GetStringEnv("SEPRIV_PROXIMITY_CACHE");
}

uint64_t SePrivGEmbConfig::Digest() const {
  // Doubles are folded in by bit pattern, not value rounding: any change that
  // could alter a single FLOP must change the digest.
  auto mix_double = [](uint64_t h, double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return HashMix(h, bits);
  };
  uint64_t h = HashMix(0x5e9b1uLL, 1);  // domain tag + format version
  h = HashMix(h, dim);
  h = HashMix(h, static_cast<uint64_t>(negatives));
  h = HashMix(h, batch_size);
  h = mix_double(h, learning_rate);
  h = HashMix(h, max_epochs);
  h = mix_double(h, clip_threshold);
  h = mix_double(h, noise_multiplier);
  h = mix_double(h, epsilon);
  h = mix_double(h, delta);
  h = HashMix(h, static_cast<uint64_t>(rdp_max_order));
  h = HashMix(h, static_cast<uint64_t>(perturbation));
  h = HashMix(h, static_cast<uint64_t>(negative_weighting));
  h = HashMix(h, static_cast<uint64_t>(positive_sampling));
  h = HashMix(h, normalize_proximity ? 1 : 0);
  h = HashMix(h, negatives_exclude_neighbors ? 1 : 0);
  h = HashMix(h, seed);
  h = HashMix(h, track_loss ? 1 : 0);
  h = HashMix(h, static_cast<uint64_t>(embedding_storage));
  return h;
}

std::string SePrivGEmbConfig::DebugString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "r=%zu k=%d B=%zu eta=%.3g C=%.3g sigma=%.3g eps=%.3g "
                "delta=%.1e epochs<=%zu perturb=%s threads=%zu",
                dim, negatives, batch_size, learning_rate, clip_threshold,
                noise_multiplier, epsilon, delta, max_epochs,
                PerturbationName(perturbation), num_threads);
  return buf;
}

}  // namespace sepriv
