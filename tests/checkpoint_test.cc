// Unit tests for the crash-safe training checkpoint (core/checkpoint.h):
// round-trip fidelity (including the RNG stream state and the matrices'
// dp_sanitized bits), corruption and version rejection, atomic publish over
// a previous checkpoint, and failpoint-driven write failures.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "core/checkpoint.h"
#include "test_tmpdir.h"
#include "util/atomic_file.h"
#include "util/digest.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/status.h"

namespace sepriv {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::ClearAll();
    dir_ = TestTmpDir();
  }
  void TearDown() override { failpoint::ClearAll(); }

  static TrainCheckpoint MakeCheckpoint(uint64_t tag) {
    TrainCheckpoint ck;
    ck.graph_fingerprint = 0x1234 + tag;
    ck.config_digest = 0x5678;
    ck.preference_digest = 0x9abc;
    ck.epochs_run = 7;
    ck.accountant_steps = 7;
    ck.noise_multiplier = 1.5;
    ck.sampling_rate = 0.25;
    Rng rng(tag);
    rng.Normal();  // populate the Box–Muller cache: worst case for SaveState
    ck.rng = rng.SaveState();
    ck.loss_curve = {3.5, 2.25, 1.125};
    ck.w_in = Matrix(5, 4);
    ck.w_out = Matrix(5, 4);
    for (size_t i = 0; i < ck.w_in.size(); ++i) {
      ck.w_in.data()[i] = static_cast<double>(i) * 0.5;
      ck.w_out.data()[i] = static_cast<double>(i) * -0.25;
    }
    ck.w_in.MarkDpSanitized();
    return ck;
  }

  std::string dir_;
};

TEST_F(CheckpointTest, RoundTripRestoresEveryField) {
  const std::string path = dir_ + "/ck.bin";
  const TrainCheckpoint ck = MakeCheckpoint(/*tag=*/1);
  // sepriv-privflow: allow(leak): checkpoint round-trip test on synthetic matrices; nothing private to leak
  ASSERT_TRUE(SaveCheckpoint(ck, path).ok());

  TrainCheckpoint back;
  ASSERT_TRUE(LoadCheckpoint(path, &back).ok());
  EXPECT_EQ(back.graph_fingerprint, ck.graph_fingerprint);
  EXPECT_EQ(back.config_digest, ck.config_digest);
  EXPECT_EQ(back.preference_digest, ck.preference_digest);
  EXPECT_EQ(back.epochs_run, ck.epochs_run);
  EXPECT_EQ(back.accountant_steps, ck.accountant_steps);
  EXPECT_EQ(back.noise_multiplier, ck.noise_multiplier);
  EXPECT_EQ(back.sampling_rate, ck.sampling_rate);
  EXPECT_EQ(back.loss_curve, ck.loss_curve);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(back.rng.s[i], ck.rng.s[i]);
  EXPECT_EQ(back.rng.cached, ck.rng.cached);
  EXPECT_EQ(back.rng.has_cached, ck.rng.has_cached);
  ASSERT_EQ(back.w_in.rows(), ck.w_in.rows());
  ASSERT_EQ(back.w_in.cols(), ck.w_in.cols());
  for (size_t i = 0; i < ck.w_in.size(); ++i) {
    EXPECT_EQ(back.w_in.data()[i], ck.w_in.data()[i]);
    EXPECT_EQ(back.w_out.data()[i], ck.w_out.data()[i]);
  }
  EXPECT_TRUE(back.w_in.dp_sanitized());
  EXPECT_FALSE(back.w_out.dp_sanitized());
}

TEST_F(CheckpointTest, RestoredRngContinuesTheExactStream) {
  const std::string path = dir_ + "/rng.bin";
  Rng rng(99);
  rng.Normal();  // leave a cached Box–Muller draw pending
  TrainCheckpoint ck = MakeCheckpoint(/*tag=*/2);
  ck.rng = rng.SaveState();
  // sepriv-privflow: allow(leak): checkpoint round-trip test on synthetic matrices; nothing private to leak
  ASSERT_TRUE(SaveCheckpoint(ck, path).ok());

  TrainCheckpoint back;
  ASSERT_TRUE(LoadCheckpoint(path, &back).ok());
  Rng resumed(1);
  resumed.RestoreState(back.rng);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(resumed.Next(), rng.Next());
    EXPECT_EQ(resumed.Normal(), rng.Normal());
  }
}

TEST_F(CheckpointTest, MissingFileIsNotFound) {
  TrainCheckpoint back;
  const Status s = LoadCheckpoint(dir_ + "/nope.bin", &back);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(CheckpointTest, BitFlipAnywhereIsRejected) {
  const std::string path = dir_ + "/flip.bin";
  // sepriv-privflow: allow(leak): checkpoint round-trip test on synthetic matrices; nothing private to leak
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(/*tag=*/3), path).ok());

  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  // Flip one bit at several representative offsets: header, body, checksum.
  for (const size_t at : {size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
    std::string mutated = bytes;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x04);
    ASSERT_TRUE(
        WriteFileAtomic(path, mutated.data(), mutated.size(), nullptr).ok());
    TrainCheckpoint back;
    const Status s = LoadCheckpoint(path, &back);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << "offset " << at;
  }
}

// A version-2 checkpoint holds a model trained under the engine's earlier
// noise generator; resuming it would splice two noise streams. A version-3
// one has no preference digest, so its words would be misread. The file is
// patched to each old version and resealed, so only the version check can
// reject it; the same patch back to the current version still loads.
TEST_F(CheckpointTest, VersionTwoCheckpointIsRejected) {
  const std::string path = dir_ + "/v2.bin";
  // sepriv-privflow: allow(leak): checkpoint round-trip test on synthetic matrices; nothing private to leak
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(/*tag=*/8), path).ok());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  const auto write_version = [&](uint64_t version) {
    std::string patched = bytes;
    std::memcpy(patched.data() + sizeof(uint64_t), &version, sizeof(version));
    const size_t body = patched.size() - sizeof(uint64_t);
    const uint64_t seal = FnvDigest(patched.data(), body);
    std::memcpy(patched.data() + body, &seal, sizeof(seal));
    return WriteFileAtomic(path, patched.data(), patched.size(), nullptr);
  };
  uint64_t current = 0;
  std::memcpy(&current, bytes.data() + sizeof(uint64_t), sizeof(current));
  ASSERT_EQ(current, 4u);

  TrainCheckpoint back;
  for (const uint64_t old_version : {2u, 3u}) {
    ASSERT_TRUE(write_version(old_version).ok());
    const Status s = LoadCheckpoint(path, &back);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << "v" << old_version;
    EXPECT_NE(s.ToString().find("version"), std::string::npos)
        << s.ToString();
  }

  ASSERT_TRUE(write_version(4).ok());
  EXPECT_TRUE(LoadCheckpoint(path, &back).ok());
}

TEST_F(CheckpointTest, TruncationIsRejected) {
  const std::string path = dir_ + "/trunc.bin";
  // sepriv-privflow: allow(leak): checkpoint round-trip test on synthetic matrices; nothing private to leak
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(/*tag=*/4), path).ok());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  ASSERT_TRUE(WriteFileAtomic(path, bytes.data(), bytes.size() / 2, nullptr)
                  .ok());
  TrainCheckpoint back;
  EXPECT_EQ(LoadCheckpoint(path, &back).code(), StatusCode::kCorruption);
}

TEST_F(CheckpointTest, FailedSaveLeavesPreviousCheckpointIntact) {
  const std::string path = dir_ + "/atomic.bin";
  const TrainCheckpoint first = MakeCheckpoint(/*tag=*/5);
  // sepriv-privflow: allow(leak): checkpoint round-trip test on synthetic matrices; nothing private to leak
  ASSERT_TRUE(SaveCheckpoint(first, path).ok());

  // Tear the second save mid-write: the publish must not replace the file.
  ASSERT_TRUE(failpoint::SetSpec("checkpoint.write=torn"));
  EXPECT_FALSE(SaveCheckpoint(MakeCheckpoint(/*tag=*/6), path).ok());
  failpoint::ClearAll();

  TrainCheckpoint back;
  ASSERT_TRUE(LoadCheckpoint(path, &back).ok());
  EXPECT_EQ(back.graph_fingerprint, first.graph_fingerprint);
}

TEST_F(CheckpointTest, EnospcOnSaveSurfacesAsNoSpace) {
  ASSERT_TRUE(failpoint::SetSpec("checkpoint.write=enospc"));
  // sepriv-privflow: allow(leak): checkpoint round-trip test on synthetic matrices; nothing private to leak
  const Status s = SaveCheckpoint(MakeCheckpoint(/*tag=*/7), dir_ + "/e.bin");
  EXPECT_EQ(s.code(), StatusCode::kNoSpace);
}

TEST_F(CheckpointTest, SyncFailureDoesNotPublish) {
  const std::string path = dir_ + "/sync.bin";
  ASSERT_TRUE(failpoint::SetSpec("checkpoint.sync=err"));
  // sepriv-privflow: allow(leak): checkpoint round-trip test on synthetic matrices; nothing private to leak
  EXPECT_FALSE(SaveCheckpoint(MakeCheckpoint(/*tag=*/8), path).ok());
  failpoint::ClearAll();
  TrainCheckpoint back;
  EXPECT_EQ(LoadCheckpoint(path, &back).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace sepriv
