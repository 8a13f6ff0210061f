// Throughput benchmark for the vectorized kernel layer (linalg/kernels.h):
// per-kernel GB/s old-vs-new, bulk Gaussian draw rates, and blocked-GEMM
// GFLOP/s at 1/2/4/8 threads with output digests witnessing the
// thread-invariance contract. The "naive" columns re-implement the seed
// tree's scalar single-accumulator loops (including the old GEMM's
// per-element zero branch) so the speedup is measured against the real
// pre-kernel-layer code, not a strawman; they live in naive_reference.h,
// shared with the kernel property tests.
//
// The SIMD dispatch sweep re-times the hot kernels (dot, axpy, fused SGNS
// update, serial GEMM, counter-based Gaussian noise) once per available
// dispatch level — scalar, avx2, avx512 — emitting records like "dot/avx2",
// "gemm/avx512" and "noise/avx512" plus a "simd/digests_identical" witness
// that every level produced bit-identical results (the accumulation-order
// contract of linalg/simd/). That record also carries the noise output
// digest, which CI compares between a SEPRIV_SIMD=scalar process and a
// native one.
//
// Environment knobs:
//   SEPRIV_BENCH_N        vector length for the level-1 kernels (default 65536)
//   SEPRIV_BENCH_GEMM     square GEMM size                      (default 512)
//   SEPRIV_BENCH_MIN_MS   min timed window per measurement      (default 150)
//
// Flags:
//   --simd=<level>        pin dispatch to scalar|avx2|avx512 for the whole
//                         run and restrict the sweep to that level (errors
//                         if the CPU/build does not support it)
//   --json <path>         also write the results as JSON (see bench_json.h);
//                         BENCH_kernels.json at the repo root is the committed
//                         baseline future PRs diff against.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/naive_reference.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/simd/cpu_features.h"
#include "util/digest.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using sepriv::Matrix;
using sepriv::Rng;
using sepriv::WallTimer;

volatile double g_sink = 0.0;

// Defeats dead-code elimination without the deprecated volatile compound-
// assignment.
inline void Sink(double v) { g_sink = g_sink + v; }

// Seconds per call, timed over a window of at least `min_seconds`.
template <typename Fn>
double TimePerCall(Fn&& fn, double min_seconds) {
  size_t iters = 1;
  for (;;) {
    WallTimer t;
    for (size_t i = 0; i < iters; ++i) fn();
    const double s = t.ElapsedSeconds();
    if (s >= min_seconds) return s / static_cast<double>(iters);
    const double grow = s > 0.0 ? (1.3 * min_seconds / s) : 4.0;
    iters = static_cast<size_t>(static_cast<double>(iters) * grow) + 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sepriv;
  namespace bj = sepriv::bench;

  const size_t n = ParseSizeEnv("SEPRIV_BENCH_N", size_t{1} << 28, 65536);
  const size_t gemm = ParseSizeEnv("SEPRIV_BENCH_GEMM", 8192, 512);
  const double min_s =
      static_cast<double>(ParseSizeEnv("SEPRIV_BENCH_MIN_MS", 60000, 150)) /
      1e3;

  // --simd=<level>: pin dispatch for the whole run and restrict the sweep.
  bool pinned = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--simd=", 0) != 0) continue;
    simd::Level level;
    if (!simd::ParseLevel(arg.c_str() + 7, &level)) {
      std::fprintf(stderr, "bad --simd value '%s' (want scalar|avx2|avx512)\n",
                   arg.c_str() + 7);
      return 1;
    }
    if (!simd::LevelSupported(level)) {
      std::fprintf(stderr, "--simd=%s not supported on this CPU/build\n",
                   simd::LevelName(level));
      return 1;
    }
    simd::SetLevel(level);
    pinned = true;
  }

  bj::BenchJson json("bench_kernels");
  json.AddMeta("hardware_threads",
               std::to_string(ThreadPool::ResolveThreads(0)));
  json.AddMeta("vector_n", std::to_string(n));
  json.AddMeta("gemm_size", std::to_string(gemm));
  json.AddMeta("cpu_features", simd::CpuFeatureString());
  json.AddMeta("simd_active", simd::LevelName(simd::ActiveLevel()));

  std::printf("# bench_kernels\n# hardware threads: %zu, n=%zu, gemm=%zu\n",
              ThreadPool::ResolveThreads(0), n, gemm);
  std::printf("# cpu: %s, dispatch: %s%s\n\n", simd::CpuFeatureString().c_str(),
              simd::LevelName(simd::ActiveLevel()),
              pinned ? " (pinned by --simd)" : "");

  Rng rng(1);
  std::vector<double> a(n), b(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.Uniform(-1.0, 1.0);
    b[i] = rng.Uniform(-1.0, 1.0);
    y[i] = rng.Uniform(-1.0, 1.0);
  }

  // --- Level-1 kernels: GB/s moved, old vs new. ----------------------------
  struct Level1 {
    const char* name;
    double bytes_per_elem;  // memory traffic per element per call
    std::function<void()> naive;
    std::function<void()> fast;
  };
  const Level1 rows[] = {
      {"dot", 16.0, [&] { Sink(naive::Dot(a.data(), b.data(), n)); },
       [&] { Sink(kernels::Dot(a.data(), b.data(), n)); }},
      {"squared_norm", 8.0, [&] { Sink(naive::SquaredNorm(a.data(), n)); },
       [&] { Sink(kernels::SquaredNorm(a.data(), n)); }},
      {"squared_distance", 16.0,
       [&] { Sink(naive::SquaredDistance(a.data(), b.data(), n)); },
       [&] { Sink(kernels::SquaredDistance(a.data(), b.data(), n)); }},
      {"axpy", 24.0, [&] { naive::Axpy(1.0001, a.data(), y.data(), n); },
       [&] { kernels::Axpy(1.0001, a.data(), y.data(), n); }},
  };

  std::printf("%-18s %12s %12s %9s\n", "kernel", "naive GB/s", "new GB/s",
              "speedup");
  for (const Level1& r : rows) {
    const double t_old = TimePerCall(r.naive, min_s);
    const double t_new = TimePerCall(r.fast, min_s);
    const double gb = r.bytes_per_elem * static_cast<double>(n) / 1e9;
    const double old_rate = gb / t_old;
    const double new_rate = gb / t_new;
    std::printf("%-18s %12.2f %12.2f %8.2fx\n", r.name, old_rate, new_rate,
                t_old / t_new);
    json.AddRecord(std::string(r.name) + "/naive",
                   {{"n", static_cast<double>(n)}, {"gb_per_s", old_rate}});
    json.AddRecord(std::string(r.name) + "/new",
                   {{"n", static_cast<double>(n)},
                    {"gb_per_s", new_rate},
                    {"speedup", t_old / t_new}});
  }

  // --- Bulk Gaussian: draws/s, cached scalar Box–Muller vs block fill. -----
  {
    Rng nrng(2);
    std::vector<double> dst(n);
    const double t_old = TimePerCall(
        [&] {
          for (size_t i = 0; i < n; ++i) dst[i] = nrng.Normal(0.0, 1.0);
          Sink(dst[0]);
        },
        min_s);
    const double t_new = TimePerCall(
        [&] {
          kernels::FillGaussian(nrng, dst.data(), n, 0.0, 1.0);
          Sink(dst[0]);
        },
        min_s);
    const double md_old = static_cast<double>(n) / t_old / 1e6;
    const double md_new = static_cast<double>(n) / t_new / 1e6;
    std::printf("\n%-18s %12s %12s %9s\n", "gaussian_fill", "naive Md/s",
                "new Md/s", "speedup");
    std::printf("%-18s %12.2f %12.2f %8.2fx\n", "normal_draws", md_old, md_new,
                t_old / t_new);
    json.AddRecord("gaussian_fill/naive",
                   {{"n", static_cast<double>(n)}, {"mdraws_per_s", md_old}});
    json.AddRecord("gaussian_fill/new", {{"n", static_cast<double>(n)},
                                         {"mdraws_per_s", md_new},
                                         {"speedup", t_old / t_new}});
  }

  // --- GEMM: GFLOP/s at 1/2/4/8 threads, digests must match. ---------------
  {
    Rng grng(3);
    Matrix ga(gemm, gemm), gb(gemm, gemm);
    ga.FillUniform(grng, -1.0, 1.0);
    gb.FillUniform(grng, -1.0, 1.0);
    const double flops = 2.0 * static_cast<double>(gemm) *
                         static_cast<double>(gemm) *
                         static_cast<double>(gemm);

    const double t_naive = TimePerCall(
        [&] { Sink(naive::MatMul(ga, gb)(0, 0)); }, min_s);
    const double naive_gflops = flops / t_naive / 1e9;
    std::printf("\n%-18s %12s %9s %9s %18s\n", "gemm", "GFLOP/s", "vs naive",
                "vs t1", "digest");
    std::printf("%-18s %12.2f %9s %9s %18s\n", "naive/serial", naive_gflops,
                "1.00x", "-", "-");
    json.AddRecord("gemm/naive", {{"size", static_cast<double>(gemm)},
                                  {"gflops", naive_gflops}});

    double t1 = 0.0;
    uint64_t want_digest = 0;
    bool digests_match = true;
    for (size_t threads : {1UL, 2UL, 4UL, 8UL}) {
      kernels::SetLinalgThreads(threads);
      const double t = TimePerCall(
          [&] { Sink(MatMul(ga, gb)(0, 0)); }, min_s);
      const uint64_t digest = MatrixDigest(MatMul(ga, gb));
      if (threads == 1) {
        t1 = t;
        want_digest = digest;
      }
      digests_match = digests_match && digest == want_digest;
      const double rate = flops / t / 1e9;
      char name[32];
      std::snprintf(name, sizeof(name), "blocked/t%zu", threads);
      std::printf("%-18s %12.2f %8.2fx %8.2fx %18" PRIx64 "\n", name,
                  rate, t_naive / t, t1 / t, digest);
      json.AddRecord(std::string("gemm/") + name,
                     {{"size", static_cast<double>(gemm)},
                      {"threads", static_cast<double>(threads)},
                      {"gflops", rate},
                      {"speedup_vs_naive", t_naive / t},
                      {"speedup_vs_t1", t1 / t},
                      {"digest_hi", static_cast<double>(digest >> 32)},
                      {"digest_lo",
                       static_cast<double>(digest & 0xffffffffULL)}});
    }
    kernels::SetLinalgThreads(0);
    std::printf("# digests %s across thread counts\n",
                digests_match ? "identical" : "DIVERGED (BUG)");
    json.AddRecord("gemm/digests_identical",
                   {{"value", digests_match ? 1.0 : 0.0}});
  }

  // --- SIMD dispatch sweep: the hot kernels once per available level. ------
  {
    std::vector<simd::Level> levels;
    for (simd::Level level :
         {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
      if (!simd::LevelSupported(level)) continue;
      if (pinned && level != simd::ActiveLevel()) continue;
      levels.push_back(level);
    }

    // Fused SGNS update workload: a pool of (center, context) row pairs at
    // the paper's r=128, cycled so the timing covers the whole fused kernel
    // (dot + sigmoid + two gradient rows), not one cache-hot pair. The
    // naive baseline composes the same update from the seed tree's
    // single-accumulator dot and plain mul+add loops.
    const size_t dim = 128;
    const size_t pairs = 256;
    Rng srng(4);
    std::vector<double> vi(pairs * dim), vn(pairs * dim);
    for (double& x : vi) x = srng.Uniform(-1.0, 1.0);
    for (double& x : vn) x = srng.Uniform(-1.0, 1.0);
    std::vector<double> center_grad(dim, 0.0), ctx_row(dim, 0.0);
    size_t cursor = 0;
    const auto sgns_naive = [&] {
      const double* a = vi.data() + (cursor % pairs) * dim;
      const double* b = vn.data() + (cursor % pairs) * dim;
      ++cursor;
      const double x = naive::Dot(a, b, dim);
      const double coeff = 0.9 * (kernels::Sigmoid(x) - 1.0);
      for (size_t d = 0; d < dim; ++d) center_grad[d] += coeff * b[d];
      for (size_t d = 0; d < dim; ++d) ctx_row[d] = coeff * a[d];
      Sink(ctx_row[0]);
    };
    const auto sgns_fast = [&] {
      const double* a = vi.data() + (cursor % pairs) * dim;
      const double* b = vn.data() + (cursor % pairs) * dim;
      ++cursor;
      Sink(kernels::SgnsAccumulate(a, b, dim, 0.9, 1.0, center_grad.data(),
                                   ctx_row.data()));
    };
    const double t_sgns_naive = TimePerCall(sgns_naive, min_s);
    const double sgns_naive_rate =
        1.0 / t_sgns_naive / 1e6;  // million fused updates per second
    json.AddRecord("sgns/naive", {{"dim", static_cast<double>(dim)},
                                  {"mupd_per_s", sgns_naive_rate}});

    std::printf("\n%-18s %12s %12s %12s %9s\n", "simd sweep", "dot GB/s",
                "sgns Mu/s", "gemm GF/s", "vs scalar");
    std::printf("%-18s %12s %12.2f %12s %9s\n", "sgns_naive", "-",
                sgns_naive_rate, "-", "-");

    kernels::SetLinalgThreads(1);  // 1-core numbers: ISA speedup, not threads
    const double flops = 2.0 * static_cast<double>(gemm) *
                         static_cast<double>(gemm) *
                         static_cast<double>(gemm);
    Rng grng(5);
    Matrix ga(gemm, gemm), gb(gemm, gemm);
    ga.FillUniform(grng, -1.0, 1.0);
    gb.FillUniform(grng, -1.0, 1.0);

    // Counter-based Gaussian noise: n draws per call into one buffer; the
    // digest covers a fill that starts at an odd index, so the head, body
    // and tail paths of every level contribute.
    std::vector<double> noise(n, 0.0);

    double scalar_dot = 0.0, scalar_sgns = 0.0, scalar_gemm = 0.0;
    double scalar_noise = 0.0;
    uint64_t want_gemm_digest = 0, want_dot_bits = 0, want_noise_digest = 0;
    bool identical = true;
    for (simd::Level level : levels) {
      simd::SetLevel(level);
      const char* lname = simd::LevelName(level);

      const double t_dot = TimePerCall(
          [&] { Sink(kernels::Dot(a.data(), b.data(), n)); }, min_s);
      const double dot_rate = 16.0 * static_cast<double>(n) / 1e9 / t_dot;

      const double t_sgns = TimePerCall(sgns_fast, min_s);
      const double sgns_rate = 1.0 / t_sgns / 1e6;

      const double t_gemm =
          TimePerCall([&] { Sink(MatMul(ga, gb)(0, 0)); }, min_s);
      const double gemm_rate = flops / t_gemm / 1e9;

      const double t_noise = TimePerCall(
          [&] {
            kernels::GaussianAccumulate(0x5eed, 1, 0, noise.data(), n, 1.0);
            Sink(noise[0]);
          },
          min_s);
      const double noise_rate = static_cast<double>(n) / t_noise / 1e6;

      const uint64_t gemm_digest = MatrixDigest(MatMul(ga, gb));
      uint64_t dot_bits = 0;
      const double dot_val = kernels::Dot(a.data(), b.data(), n);
      std::memcpy(&dot_bits, &dot_val, sizeof(dot_bits));
      std::fill(noise.begin(), noise.end(), 0.0);
      kernels::GaussianAccumulate(0x5eed, 1, 7, noise.data(), n, 1.0);
      const uint64_t noise_digest =
          FnvDigest(noise.data(), noise.size() * sizeof(double));
      if (level == levels.front()) {
        want_gemm_digest = gemm_digest;
        want_dot_bits = dot_bits;
        want_noise_digest = noise_digest;
      }
      identical = identical && gemm_digest == want_gemm_digest &&
                  dot_bits == want_dot_bits &&
                  noise_digest == want_noise_digest;
      if (level == simd::Level::kScalar) {
        scalar_dot = dot_rate;
        scalar_sgns = sgns_rate;
        scalar_gemm = gemm_rate;
        scalar_noise = noise_rate;
      }
      const double vs = scalar_gemm > 0 ? gemm_rate / scalar_gemm : 0.0;
      std::printf("%-18s %12.2f %12.2f %12.2f %8.2fx\n", lname, dot_rate,
                  sgns_rate, gemm_rate, vs);
      json.AddRecord(std::string("dot/") + lname,
                     {{"n", static_cast<double>(n)},
                      {"gb_per_s", dot_rate},
                      {"speedup_vs_scalar",
                       scalar_dot > 0 ? dot_rate / scalar_dot : 0.0}});
      json.AddRecord(std::string("sgns/") + lname,
                     {{"dim", static_cast<double>(dim)},
                      {"mupd_per_s", sgns_rate},
                      {"speedup_vs_naive", sgns_rate / sgns_naive_rate},
                      {"speedup_vs_scalar",
                       scalar_sgns > 0 ? sgns_rate / scalar_sgns : 0.0}});
      json.AddRecord(std::string("gemm/") + lname,
                     {{"size", static_cast<double>(gemm)},
                      {"gflops", gemm_rate},
                      {"speedup_vs_scalar", vs}});
      std::printf("%-18s %12.2f Mdraws/s %30" PRIx64 "\n",
                  (std::string("noise/") + lname).c_str(), noise_rate,
                  noise_digest);
      json.AddRecord(
          std::string("noise/") + lname,
          {{"n", static_cast<double>(n)},
           {"mdraws_per_s", noise_rate},
           {"speedup_vs_scalar",
            scalar_noise > 0 ? noise_rate / scalar_noise : 0.0},
           {"digest_hi", static_cast<double>(noise_digest >> 32)},
           {"digest_lo", static_cast<double>(noise_digest & 0xffffffffULL)}});
    }
    kernels::SetLinalgThreads(0);
    if (pinned) {
      simd::SetLevel(simd::ActiveLevel());  // keep the pin
    } else {
      simd::ResetLevel();
    }
    std::printf("# simd outputs %s across dispatch levels\n",
                identical ? "bit-identical" : "DIVERGED (BUG)");
    json.AddRecord(
        "simd/digests_identical",
        {{"value", identical ? 1.0 : 0.0},
         {"noise_digest_hi", static_cast<double>(want_noise_digest >> 32)},
         {"noise_digest_lo",
          static_cast<double>(want_noise_digest & 0xffffffffULL)}});
  }

  if (const char* path = bj::JsonPathFromArgs(argc, argv)) {
    if (json.Write(path)) std::printf("# wrote %s\n", path);
  }
  return 0;
}
