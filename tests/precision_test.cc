// Reduced-precision embedding storage: the float32 training mode
// (EmbeddingStorage::kFloat32 + Matrix::RoundToFloat32 + checkpoint v2
// float payloads), the Float32Matrix serving copy, and the int8 row codec.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/se_privgemb.h"
#include "embedding/quantized_rows.h"
#include "graph/generators.h"
#include "linalg/matrix.h"
#include "linalg/simd/cpu_features.h"
#include "test_tmpdir.h"
#include "util/digest.h"
#include "util/rng.h"

namespace sepriv {
namespace {

bool IsFloat32Representable(double x) {
  return static_cast<double>(static_cast<float>(x)) == x;
}

SePrivGEmbConfig SmallConfig() {
  SePrivGEmbConfig cfg;
  cfg.dim = 16;
  cfg.negatives = 5;
  cfg.batch_size = 32;
  cfg.learning_rate = 0.1;
  cfg.max_epochs = 12;
  cfg.noise_multiplier = 5.0;
  cfg.clip_threshold = 2.0;
  cfg.epsilon = 3.5;
  cfg.delta = 1e-5;
  cfg.seed = 42;
  cfg.num_threads = 1;
  cfg.proximity_cache_path = "-";
  return cfg;
}

// ---------------------------------------------------------------- rounding

TEST(RoundToFloat32Test, RoundsAndIsIdempotent) {
  Matrix m(3, 5);
  Rng rng(7);
  m.FillGaussian(rng, 0.0, 1.0);
  m(1, 2) = 0.1;  // not exactly representable in binary32
  ASSERT_FALSE(IsFloat32Representable(m(1, 2)));

  m.RoundToFloat32();
  for (size_t i = 0; i < m.size(); ++i)
    EXPECT_TRUE(IsFloat32Representable(m.data()[i]));
  EXPECT_EQ(m(1, 2), static_cast<double>(static_cast<float>(0.1)));

  const uint64_t once = MatrixDigest(m);
  m.RoundToFloat32();
  EXPECT_EQ(MatrixDigest(m), once);  // idempotent
}

TEST(Float32MatrixTest, RoundTripIsLosslessOnRoundedValues) {
  Matrix m(4, 9);
  Rng rng(11);
  m.FillGaussian(rng, 0.0, 2.0);
  m.MarkDpSanitized();
  m.RoundToFloat32();

  const Float32Matrix f(m);
  EXPECT_EQ(f.rows(), m.rows());
  EXPECT_EQ(f.cols(), m.cols());
  EXPECT_TRUE(f.dp_sanitized());
  EXPECT_EQ(f.MemoryBytes(), m.size() * sizeof(float));

  const Matrix back = f.ToMatrix();
  EXPECT_TRUE(back.dp_sanitized());
  EXPECT_EQ(MatrixDigest(back), MatrixDigest(m));

  std::vector<double> row(m.cols());
  f.DecodeRow(2, row.data());
  for (size_t j = 0; j < m.cols(); ++j) EXPECT_EQ(row[j], m(2, j));
}

TEST(Float32MatrixTest, NarrowingRoundsUnroundedValues) {
  Matrix m(1, 1);
  m(0, 0) = 0.1;
  const Float32Matrix f(m);
  EXPECT_EQ(static_cast<double>(f(0, 0)),
            static_cast<double>(static_cast<float>(0.1)));
}

// ------------------------------------------------------------- int8 codec

TEST(QuantizedRowsTest, RoundTripWithinHalfScale) {
  Matrix m(6, 33);
  Rng rng(5);
  m.FillGaussian(rng, 0.0, 1.0);
  m.MarkDpSanitized();

  const QuantizedRowMatrix q(m);
  EXPECT_TRUE(q.dp_sanitized());
  EXPECT_EQ(q.MemoryBytes(),
            m.size() * sizeof(int8_t) + m.rows() * sizeof(float));

  const Matrix back = q.ToMatrix();
  EXPECT_TRUE(back.dp_sanitized());
  for (size_t i = 0; i < m.rows(); ++i) {
    double maxabs = 0.0;
    for (size_t j = 0; j < m.cols(); ++j)
      maxabs = std::max(maxabs, std::abs(m(i, j)));
    // Worst-case per-element error is half a quantisation step, plus the
    // float32 rounding of the scale itself.
    const double bound = maxabs / 254.0 + maxabs * 1e-6;
    for (size_t j = 0; j < m.cols(); ++j) {
      EXPECT_LE(std::abs(back(i, j) - m(i, j)), bound)
          << "row " << i << " col " << j;
      EXPECT_LE(std::abs(static_cast<double>(q.code(i, j))), 127.0);
    }
  }
}

TEST(QuantizedRowsTest, MaxElementEncodesToFullScale) {
  Matrix m(1, 4);
  m(0, 0) = -3.0;
  m(0, 1) = 1.5;
  m(0, 2) = 0.0;
  m(0, 3) = 3.0;
  const QuantizedRowMatrix q(m);
  EXPECT_EQ(q.code(0, 0), -127);
  EXPECT_EQ(q.code(0, 3), 127);
  EXPECT_EQ(q.code(0, 2), 0);
  EXPECT_FLOAT_EQ(q.scale(0), 3.0f / 127.0f);
}

TEST(QuantizedRowsTest, ZeroRowDecodesToExactZeros) {
  Matrix m(2, 8);
  m(1, 3) = 2.0;  // row 0 stays all-zero
  const QuantizedRowMatrix q(m);
  EXPECT_EQ(q.scale(0), 0.0f);
  const Matrix back = q.ToMatrix();
  for (size_t j = 0; j < m.cols(); ++j) EXPECT_EQ(back(0, j), 0.0);
}

TEST(QuantizedRowsTest, RowDotMatchesDecodedDot) {
  Matrix m(4, 65);
  Rng rng(17);
  m.FillGaussian(rng, 0.0, 1.0);
  const QuantizedRowMatrix q(m);
  const Matrix dec = q.ToMatrix();
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.rows(); ++j) {
      // The int sum is exact, so RowDot must agree with the decoded-double
      // dot to rounding of the final scale products.
      const double viaints = q.RowDot(i, q, j);
      double naive = 0.0;
      for (size_t d = 0; d < m.cols(); ++d) naive += dec(i, d) * dec(j, d);
      EXPECT_NEAR(viaints, naive, 1e-9 * std::abs(naive) + 1e-12);
      // And approximate the true double dot within the quantisation error.
      EXPECT_NEAR(viaints, m.RowDot(i, m, j), 0.05 * m.cols() / 65.0 + 0.5);
    }
  }
}

// ------------------------------------------------------------ config wire

TEST(PrecisionConfigTest, StorageModeChangesDigest) {
  SePrivGEmbConfig a = SmallConfig();
  SePrivGEmbConfig b = SmallConfig();
  b.embedding_storage = EmbeddingStorage::kFloat32;
  EXPECT_NE(a.Digest(), b.Digest());
}

// --------------------------------------------------------------- training

TEST(PrecisionTrainTest, Float32ModeKeepsWeightsRepresentable) {
  Graph g = KarateClub();
  auto cfg = SmallConfig();
  cfg.embedding_storage = EmbeddingStorage::kFloat32;
  SePrivGEmb trainer(g, ProximityKind::kDeepWalk, cfg);
  const TrainResult r = trainer.Train();
  ASSERT_GT(r.epochs_run, 0u);
  for (size_t i = 0; i < r.model.w_in.size(); ++i)
    ASSERT_TRUE(IsFloat32Representable(r.model.w_in.data()[i])) << i;
  for (size_t i = 0; i < r.model.w_out.size(); ++i)
    ASSERT_TRUE(IsFloat32Representable(r.model.w_out.data()[i])) << i;
}

TEST(PrecisionTrainTest, Float32ModeDiffersFromFloat64ButIsDeterministic) {
  Graph g = KarateClub();
  auto cfg64 = SmallConfig();
  auto cfg32 = SmallConfig();
  cfg32.embedding_storage = EmbeddingStorage::kFloat32;

  SePrivGEmb t64(g, ProximityKind::kDeepWalk, cfg64);
  SePrivGEmb t32a(g, ProximityKind::kDeepWalk, cfg32);
  SePrivGEmb t32b(g, ProximityKind::kDeepWalk, cfg32);
  const TrainResult r64 = t64.Train();
  const TrainResult r32a = t32a.Train();
  const TrainResult r32b = t32b.Train();

  EXPECT_EQ(MatrixDigest(r32a.model.w_in), MatrixDigest(r32b.model.w_in));
  EXPECT_EQ(MatrixDigest(r32a.model.w_out), MatrixDigest(r32b.model.w_out));
  EXPECT_NE(MatrixDigest(r32a.model.w_in), MatrixDigest(r64.model.w_in));
}

TEST(PrecisionTrainTest, Float32DigestInvariantAcrossSimdLevels) {
  Graph g = KarateClub();
  auto cfg = SmallConfig();
  cfg.embedding_storage = EmbeddingStorage::kFloat32;

  struct LevelGuard {
    ~LevelGuard() { simd::ResetLevel(); }
  } guard;

  simd::SetLevel(simd::Level::kScalar);
  SePrivGEmb ref_trainer(g, ProximityKind::kDeepWalk, cfg);
  const TrainResult ref = ref_trainer.Train();
  const uint64_t ref_in = MatrixDigest(ref.model.w_in);
  const uint64_t ref_out = MatrixDigest(ref.model.w_out);

  for (simd::Level level : {simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (!simd::LevelSupported(level)) continue;
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetLevel(level);
    SePrivGEmb trainer(g, ProximityKind::kDeepWalk, cfg);
    const TrainResult r = trainer.Train();
    EXPECT_EQ(MatrixDigest(r.model.w_in), ref_in);
    EXPECT_EQ(MatrixDigest(r.model.w_out), ref_out);
  }
}

// ---------------------------------------------------------- checkpoint v2

class PrecisionCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestTmpDir();
  }
  std::string dir_;
};

TEST_F(PrecisionCheckpointTest, Float32PayloadRoundTripsExactly) {
  TrainCheckpoint ck;
  ck.graph_fingerprint = 0xf00d;
  ck.config_digest = 0xbeef;
  ck.storage = EmbeddingStorage::kFloat32;
  ck.epochs_run = 3;
  ck.w_in = Matrix(10, 16);
  ck.w_out = Matrix(10, 16);
  Rng rng(3);
  ck.w_in.FillGaussian(rng);
  ck.w_out.FillGaussian(rng);
  ck.w_in.RoundToFloat32();  // the trainer's contract before an f32 save
  ck.w_out.RoundToFloat32();
  ck.w_in.MarkDpSanitized();

  const std::string p32 = dir_ + "/f32.ck";
  // sepriv-privflow: allow(leak): checkpoint round-trip test on synthetic matrices; nothing private to leak
  ASSERT_TRUE(SaveCheckpoint(ck, p32).ok());

  TrainCheckpoint back;
  ASSERT_TRUE(LoadCheckpoint(p32, &back).ok());
  EXPECT_EQ(back.storage, EmbeddingStorage::kFloat32);
  EXPECT_EQ(MatrixDigest(back.w_in), MatrixDigest(ck.w_in));
  EXPECT_EQ(MatrixDigest(back.w_out), MatrixDigest(ck.w_out));
  EXPECT_TRUE(back.w_in.dp_sanitized());
  EXPECT_FALSE(back.w_out.dp_sanitized());

  // The float payload halves the matrix bytes on disk.
  ck.storage = EmbeddingStorage::kFloat64;
  const std::string p64 = dir_ + "/f64.ck";
  ASSERT_TRUE(SaveCheckpoint(ck, p64).ok());
  const auto size32 = std::filesystem::file_size(p32);
  const auto size64 = std::filesystem::file_size(p64);
  const auto payload = ck.w_in.size() + ck.w_out.size();
  EXPECT_EQ(size64 - size32, payload * (sizeof(double) - sizeof(float)));
}

TEST_F(PrecisionCheckpointTest, Float32TrainedRunResumesBitIdentical) {
  Graph g = KarateClub();
  auto cfg = SmallConfig();
  cfg.embedding_storage = EmbeddingStorage::kFloat32;

  TrainCheckpointOptions opts;
  opts.path = dir_ + "/train.ck";
  opts.every_epochs = 1;
  opts.remove_on_success = false;

  SePrivGEmb trainer(g, ProximityKind::kDeepWalk, cfg);
  TrainResult ref;
  ASSERT_TRUE(trainer.TrainResumable(opts, &ref).ok());
  ASSERT_GT(ref.epochs_run, 0u);

  // The final checkpoint went through the float32 payload; resuming from it
  // must reproduce the exact final weights — the narrowing was lossless.
  TrainCheckpoint ck;
  ASSERT_TRUE(LoadCheckpoint(opts.path, &ck).ok());
  EXPECT_EQ(ck.storage, EmbeddingStorage::kFloat32);

  SePrivGEmb resumed(g, ProximityKind::kDeepWalk, cfg);
  TrainResult r;
  ASSERT_TRUE(resumed.ResumeFromCheckpoint(opts, &r).ok());
  EXPECT_EQ(MatrixDigest(r.model.w_in), MatrixDigest(ref.model.w_in));
  EXPECT_EQ(MatrixDigest(r.model.w_out), MatrixDigest(ref.model.w_out));
  EXPECT_EQ(r.epochs_run, ref.epochs_run);
  EXPECT_EQ(r.loss_curve, ref.loss_curve);
}

}  // namespace
}  // namespace sepriv
