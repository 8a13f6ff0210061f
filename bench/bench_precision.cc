// Reduced-precision embedding storage: memory witness + fidelity report.
//
// Three questions, answered with committed numbers (BENCH_precision.json):
//
//   1. MEMORY — materialising an embedding table as Matrix (f64),
//      Float32Matrix, and QuantizedRowMatrix (int8 + per-row scale), how
//      much RSS does each representation actually commit? The f32 table
//      must come in at ~half the f64 RSS (the headline claim), the int8
//      codec at ~1/8th.
//   2. DISK — a real trained checkpoint saved under
//      EmbeddingStorage::kFloat32 (format v2 float payload) vs kFloat64.
//   3. FIDELITY — the same training run in kFloat32 vs kFloat64 mode:
//      max elementwise weight difference and final-epoch loss delta. The
//      documented tolerance (README "Performance") is that per-epoch f32
//      rounding perturbs each weight by <= 2^-24 relative per step; over
//      the bench's horizon the final losses agree to ~1e-3 relative. The
//      modes are different trajectories by design (the config digest
//      differs), so this is a drift report, not an equality witness. The
//      int8 codec's decode error is also reported against its analytic
//      bound, max|row| / 254 per element.
//   4. COST — Train() at paper defaults on BA(10^5, 5), d = 128, in both
//      modes: seconds and the W_in/W_out digest. kFloat32 rounds only the
//      rows an epoch wrote, so it should cost about what kFloat64 does.
//
// Environment knobs:
//   SEPRIV_BENCH_PREC_ROWS    table rows for the RSS witness (default 100000)
//   SEPRIV_BENCH_PREC_DIM     table cols / embedding dim     (default 128)
//   SEPRIV_BENCH_PREC_NODES   training graph size            (default 1500)
//   SEPRIV_BENCH_PREC_EPOCHS  training epochs                (default 8)
//   SEPRIV_BENCH_PRECISION_DIR  scratch directory for the two checkpoint
//                             files (default /tmp/sepriv_bench_precision);
//                             concurrent runs need one each
//
// `--json <path>` writes the rows machine-readably (bench_json.h).

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "core/checkpoint.h"
#include "core/se_privgemb.h"
#include "embedding/quantized_rows.h"
#include "graph/generators.h"
#include "linalg/matrix.h"
#include "linalg/simd/cpu_features.h"
#include "util/digest.h"
#include "util/env.h"
#include "util/mem.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

size_t EnvSize(const char* name, size_t fallback) {
  return sepriv::ParseSizeEnv(name, /*max=*/1000000000, fallback);
}

double Mb(size_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

}  // namespace

int main(int argc, char** argv) {
  using namespace sepriv;

  const size_t rows = EnvSize("SEPRIV_BENCH_PREC_ROWS", 100000);
  const size_t dim = EnvSize("SEPRIV_BENCH_PREC_DIM", 128);
  const size_t nodes = EnvSize("SEPRIV_BENCH_PREC_NODES", 1500);
  const size_t epochs = EnvSize("SEPRIV_BENCH_PREC_EPOCHS", 8);

  // sepriv-privflow: allow(leak): public-by-policy: prints aggregate memory/fidelity metrics of synthetic benchmark tables
  std::printf("# bench_precision\n");
  std::printf("# table %zux%zu, train BA n=%zu epochs=%zu\n", rows, dim,
              nodes, epochs);

  bench::BenchJson json("bench_precision");
  json.AddMeta("rows", std::to_string(rows));
  json.AddMeta("dim", std::to_string(dim));
  json.AddMeta("nodes", std::to_string(nodes));
  json.AddMeta("epochs", std::to_string(epochs));
  json.AddMeta("hardware_threads",
               std::to_string(ThreadPool::ResolveThreads(0)));
  json.AddMeta("cpu_features", simd::CpuFeatureString());
  json.AddMeta("simd_active", simd::LevelName(simd::ActiveLevel()));

  // ---------------------------------------------------------- RSS witness
  // Build the three representations in sequence, all kept alive, and charge
  // each one the RSS growth its construction caused. Keeping everything
  // alive stops the allocator from recycling a freed table's pages into the
  // next one's measurement.
  Rng rng(99);
  const size_t rss0 = CurrentRssBytes();

  Matrix f64_table(rows, dim);
  f64_table.FillGaussian(rng, 0.0, 0.1);
  const size_t rss_f64 = CurrentRssBytes();

  const Float32Matrix f32_table(f64_table);
  const size_t rss_f32 = CurrentRssBytes();

  const QuantizedRowMatrix q_table(f64_table);
  const size_t rss_q = CurrentRssBytes();

  const double f64_mb = Mb(rss_f64 - rss0);
  const double f32_mb = Mb(rss_f32 - rss_f64);
  const double q_mb = Mb(rss_q - rss_f32);
  const double f32_ratio = f64_mb > 0 ? f64_mb / f32_mb : 0.0;
  const double q_ratio = f64_mb > 0 ? f64_mb / q_mb : 0.0;

  std::printf("%-14s %12s %12s %10s\n", "table", "logical_mb", "rss_mb",
              "f64/x");
  std::printf("%-14s %12.1f %12.1f %10s\n", "f64",
              Mb(f64_table.size() * sizeof(double)), f64_mb, "1.0");
  std::printf("%-14s %12.1f %12.1f %10.2f\n", "f32",
              Mb(f32_table.MemoryBytes()), f32_mb, f32_ratio);
  std::printf("%-14s %12.1f %12.1f %10.2f\n", "int8",
              Mb(q_table.MemoryBytes()), q_mb, q_ratio);

  // sepriv-privflow: allow(leak): record carries only memory sizes of a synthetic random table
  json.AddRecord("table/f64",
                 {{"logical_mb", Mb(f64_table.size() * sizeof(double))},
                  {"rss_mb", f64_mb}});
  json.AddRecord("table/f32", {{"logical_mb", Mb(f32_table.MemoryBytes())},
                               {"rss_mb", f32_mb},
                               {"rss_ratio_vs_f64", f32_ratio}});
  json.AddRecord("table/int8", {{"logical_mb", Mb(q_table.MemoryBytes())},
                                {"rss_mb", q_mb},
                                {"rss_ratio_vs_f64", q_ratio}});

  // Int8 decode error against the analytic per-row bound max|row|/254
  // (+ float32 rounding of the scale itself).
  const Matrix decoded = q_table.ToMatrix();
  double worst_rel = 0.0;
  for (size_t i = 0; i < rows; ++i) {
    double maxabs = 0.0;
    for (size_t j = 0; j < dim; ++j)
      maxabs = std::max(maxabs, std::abs(f64_table(i, j)));
    if (maxabs == 0.0) continue;
    for (size_t j = 0; j < dim; ++j) {
      const double err = std::abs(decoded(i, j) - f64_table(i, j));
      worst_rel = std::max(worst_rel, err / (maxabs / 254.0 + maxabs * 1e-6));
    }
  }
  std::printf("# int8 worst decode error: %.3f of the analytic bound\n",
              worst_rel);
  json.AddRecord("quant/decode_err_vs_bound", {{"value", worst_rel}});

  // ------------------------------------------------- training + checkpoint
  SePrivGEmbConfig cfg;
  cfg.dim = 32;
  cfg.batch_size = 128;
  cfg.max_epochs = epochs;
  cfg.negatives = 5;
  cfg.perturbation = PerturbationStrategy::kNonZero;
  cfg.seed = 7;
  cfg.proximity_cache_path = "-";

  Graph graph = BarabasiAlbert(nodes, 5, /*seed=*/1);

  WallTimer t64;
  SePrivGEmb trainer64(graph, ProximityKind::kPreferentialAttachment, cfg);
  const TrainResult r64 = trainer64.Train();
  const double secs64 = t64.ElapsedSeconds();

  auto cfg32 = cfg;
  cfg32.embedding_storage = EmbeddingStorage::kFloat32;
  WallTimer t32;
  SePrivGEmb trainer32(graph, ProximityKind::kPreferentialAttachment, cfg32);
  const TrainResult r32 = trainer32.Train();
  const double secs32 = t32.ElapsedSeconds();

  const double weight_drift = MaxAbsDiff(r64.model.w_in, r32.model.w_in);
  const double loss64 = r64.loss_curve.empty() ? 0.0 : r64.loss_curve.back();
  const double loss32 = r32.loss_curve.empty() ? 0.0 : r32.loss_curve.back();
  const double loss_delta =
      loss64 != 0.0 ? std::abs(loss32 - loss64) / std::abs(loss64) : 0.0;
  std::printf("# train f64 %.2fs, f32 %.2fs; weight drift %.3g, "
              "final-loss rel delta %.3g\n",
              secs64, secs32, weight_drift, loss_delta);
  json.AddRecord("train/f64", {{"secs", secs64}, {"final_loss", loss64}});
  json.AddRecord("train/f32", {{"secs", secs32},
                               {"final_loss", loss32},
                               {"weight_maxabs_drift", weight_drift},
                               {"final_loss_rel_delta", loss_delta}});

  // Paper defaults at |V| = 10^5: the cost of the float32 mode. Train()
  // alone is timed; the constructor is the proximity precompute.
  const Graph big = BarabasiAlbert(100000, 5, /*seed=*/1);
  for (const EmbeddingStorage storage :
       {EmbeddingStorage::kFloat64, EmbeddingStorage::kFloat32}) {
    SePrivGEmbConfig paper;
    paper.embedding_storage = storage;
    paper.proximity_cache_path = "-";
    SePrivGEmb trainer(big, ProximityKind::kPreferentialAttachment, paper);
    WallTimer timer;
    const TrainResult r = trainer.Train();
    const double secs = timer.ElapsedSeconds();
    const uint64_t digest =
        HashMix(MatrixDigest(r.model.w_in), MatrixDigest(r.model.w_out));
    const bool f32 = storage == EmbeddingStorage::kFloat32;
    std::printf("# train BA 1e5 %s: %.2fs, digest %016" PRIx64 "\n",
                f32 ? "f32" : "f64", secs, digest);
    json.AddRecord(f32 ? "train/f32_ba1e5" : "train/f64_ba1e5",
                   {{"secs", secs},
                    {"digest_hi", static_cast<double>(digest >> 32)},
                    {"digest_lo",
                     static_cast<double>(digest & 0xffffffffULL)}});
  }

  // Checkpoint bytes: the same f32-mode state saved as a v2 float payload
  // vs forced back to a double payload.
  const std::string dir_env = GetStringEnv("SEPRIV_BENCH_PRECISION_DIR");
  const std::string scratch =
      dir_env.empty() ? "/tmp/sepriv_bench_precision" : dir_env;
  std::filesystem::create_directories(scratch);
  TrainCheckpoint ck;
  ck.graph_fingerprint = graph.Fingerprint();
  ck.config_digest = cfg32.Digest();
  ck.storage = EmbeddingStorage::kFloat32;
  ck.epochs_run = r32.epochs_run;
  ck.loss_curve = r32.loss_curve;
  ck.w_in = r32.model.w_in;
  ck.w_out = r32.model.w_out;
  const std::string p32 = scratch + "/f32.ck";
  const std::string p64 = scratch + "/f64.ck";
  // sepriv-privflow: allow(leak): checkpoints of a noised synthetic-graph run, written to bench scratch and deleted; size/losslessness artifact only
  bool ckpt_ok = SaveCheckpoint(ck, p32).ok();
  ck.storage = EmbeddingStorage::kFloat64;
  ckpt_ok = SaveCheckpoint(ck, p64).ok() && ckpt_ok;
  // Round-trip witness: the f32 payload must load back bit-identical
  // (the trainer rounded the weights, so the narrowing was lossless).
  TrainCheckpoint back;
  const bool lossless = ckpt_ok && LoadCheckpoint(p32, &back).ok() &&
                        MatrixDigest(back.w_in) == MatrixDigest(ck.w_in) &&
                        MatrixDigest(back.w_out) == MatrixDigest(ck.w_out);
  double ck32_mb = 0.0, ck64_mb = 0.0;
  if (ckpt_ok) {
    ck32_mb = Mb(std::filesystem::file_size(p32));
    ck64_mb = Mb(std::filesystem::file_size(p64));
  }
  std::printf("# checkpoint f64 %.2f MB, f32 %.2f MB (%.2fx), lossless=%d\n",
              ck64_mb, ck32_mb, ck32_mb > 0 ? ck64_mb / ck32_mb : 0.0,
              lossless ? 1 : 0);
  json.AddRecord("ckpt/f64", {{"mb", ck64_mb}});
  json.AddRecord("ckpt/f32",
                 {{"mb", ck32_mb},
                  {"ratio_vs_f64", ck32_mb > 0 ? ck64_mb / ck32_mb : 0.0},
                  {"roundtrip_lossless", lossless ? 1.0 : 0.0}});
  std::filesystem::remove(p32);
  std::filesystem::remove(p64);

  if (const char* json_path = bench::JsonPathFromArgs(argc, argv)) {
    // sepriv-privflow: allow(leak): public-by-policy: the JSON holds aggregate memory/fidelity metrics of synthetic benchmark tables
    if (!json.Write(json_path)) return 1;
  }
  if (!lossless) {
    std::fprintf(stderr, "FAIL: f32 checkpoint round-trip lost bits\n");
    return 1;
  }
  return 0;
}
