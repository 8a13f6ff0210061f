// Fork-based crash harness for resumable training: a child process is killed
// at an injected crash point (every stage of the checkpoint publish sequence,
// plus mid-pipeline sites of the out-of-core path), and the parent then
// asserts the two halves of the crash-safety contract —
//   1. the checkpoint file on disk is the OLD one or the NEW one, never torn;
//   2. resuming completes training with a result bit-identical to an
//      uninterrupted run, including the restored privacy spend.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/se_privgemb.h"
#include "graph/generators.h"
#include "graph/shard.h"
#include "test_tmpdir.h"
#include "util/digest.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace sepriv {
namespace {

/// Everything a training run produces, hashed for bit-exact comparison.
struct TrainDigest {
  uint64_t w_in = 0;
  uint64_t w_out = 0;
  std::vector<double> loss_curve;
  size_t epochs_run = 0;
  uint64_t spent_epsilon_bits = 0;

  explicit TrainDigest(const TrainResult& r)
      : w_in(MatrixDigest(r.model.w_in)),
        w_out(MatrixDigest(r.model.w_out)),
        loss_curve(r.loss_curve),
        epochs_run(r.epochs_run),
        spent_epsilon_bits(std::bit_cast<uint64_t>(r.spent_epsilon)) {}

  bool operator==(const TrainDigest&) const = default;
};

/// The exit code CrashNow() dies with; anything else means the child either
/// finished (the crash site was never reached) or failed some other way.
constexpr int kCrashExit = 137;

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::ClearAll();
    root_ = TestTmpDir();
  }
  void TearDown() override { failpoint::ClearAll(); }

  /// Forks, arms `spec` in the child, runs `body`, and returns the child's
  /// wait status. The child leaves via _exit — no atexit, no gtest teardown.
  template <typename Fn>
  static int RunChild(const std::string& spec, Fn&& body) {
    ::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      if (!failpoint::SetSpec(spec)) ::_exit(3);
      body();
      ::_exit(0);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    return status;
  }

  static bool CrashedAsInjected(int status) {
    return WIFEXITED(status) && WEXITSTATUS(status) == kCrashExit;
  }

  /// Deterministic small config; kNonZero so the accountant is live and the
  /// spend restoration is part of every digest comparison.
  static SePrivGEmbConfig BaseConfig() {
    SePrivGEmbConfig cfg;
    cfg.dim = 8;
    cfg.batch_size = 32;
    cfg.max_epochs = 4;
    cfg.negatives = 3;
    cfg.seed = 13;
    cfg.num_threads = 1;
    cfg.perturbation = PerturbationStrategy::kNonZero;
    cfg.proximity_cache_path = "-";
    return cfg;
  }

  static TrainCheckpointOptions CkptOptions(const std::string& path) {
    TrainCheckpointOptions opts;
    opts.path = path;
    opts.every_epochs = 1;
    opts.remove_on_success = false;  // keep the file for inspection
    return opts;
  }

  std::string root_;
};

// Crash the child at every stage of the checkpoint publish sequence. The
// hit counter is per site, so "@3" crashes during the save after epoch 3:
//   write  — before any byte of the new file is durable ⇒ disk has epoch 2;
//   sync   — data written, not yet durable, not renamed  ⇒ disk has epoch 2;
//   rename — new file published                          ⇒ disk has epoch 3.
TEST_F(CrashRecoveryTest, InMemoryCrashMatrixResumesBitIdentical) {
  const Graph g = BarabasiAlbert(200, 4, /*seed=*/31);
  const SePrivGEmbConfig cfg = BaseConfig();

  SePrivGEmb ref_trainer(g, ProximityKind::kPreferentialAttachment, cfg);
  TrainResult ref_result;
  ASSERT_TRUE(
      ref_trainer.TrainResumable(CkptOptions(root_ + "/ref.ck"), &ref_result)
          .ok());
  const TrainDigest ref(ref_result);

  struct CrashSite {
    const char* spec;
    uint64_t surviving_epochs;  // epochs_run of the file the crash leaves
  };
  const CrashSite kSites[] = {
      {"checkpoint.write=crash@3", 2},
      {"checkpoint.sync=crash@3", 2},
      {"checkpoint.rename=crash@3", 3},
  };

  int case_id = 0;
  for (const CrashSite& site : kSites) {
    SCOPED_TRACE(site.spec);
    const std::string ck_path =
        root_ + "/crash" + std::to_string(case_id++) + ".ck";

    const int status = RunChild(site.spec, [&] {
      SePrivGEmb trainer(g, ProximityKind::kPreferentialAttachment, cfg);
      TrainResult r;
      (void)trainer.TrainResumable(CkptOptions(ck_path), &r);
    });
    ASSERT_TRUE(CrashedAsInjected(status)) << "wait status " << status;

    // Old-or-new, never torn: the file loads cleanly and is exactly the
    // epoch the publish sequence guarantees for this crash point.
    TrainCheckpoint ck;
    ASSERT_TRUE(LoadCheckpoint(ck_path, &ck).ok());
    EXPECT_EQ(ck.epochs_run, site.surviving_epochs);
    EXPECT_EQ(ck.accountant_steps, ck.epochs_run);
    EXPECT_EQ(ck.graph_fingerprint, g.Fingerprint());

    // Resume to completion: bit-identical to the uninterrupted run,
    // including the epsilon spend accumulated across both process lives.
    SePrivGEmb resumed(g, ProximityKind::kPreferentialAttachment, cfg);
    TrainResult result;
    ASSERT_TRUE(
        resumed.ResumeFromCheckpoint(CkptOptions(ck_path), &result).ok());
    EXPECT_EQ(TrainDigest(result), ref);
  }
}

TEST_F(CrashRecoveryTest, CrashBeforeFirstCheckpointMeansFreshStart) {
  const Graph g = BarabasiAlbert(150, 4, /*seed=*/32);
  const SePrivGEmbConfig cfg = BaseConfig();
  const std::string ck_path = root_ + "/first.ck";

  SePrivGEmb ref_trainer(g, ProximityKind::kPreferentialAttachment, cfg);
  TrainResult ref_result;
  ASSERT_TRUE(ref_trainer
                  .TrainResumable(CkptOptions(root_ + "/first_ref.ck"),
                                  &ref_result)
                  .ok());

  // Crash while the FIRST checkpoint is being synced: nothing was ever
  // published, so recovery sees no file at all — never a partial one.
  const int status = RunChild("checkpoint.sync=crash@1", [&] {
    SePrivGEmb trainer(g, ProximityKind::kPreferentialAttachment, cfg);
    TrainResult r;
    (void)trainer.TrainResumable(CkptOptions(ck_path), &r);
  });
  ASSERT_TRUE(CrashedAsInjected(status)) << "wait status " << status;

  TrainCheckpoint ck;
  EXPECT_EQ(LoadCheckpoint(ck_path, &ck).code(), StatusCode::kNotFound);

  // TrainResumable restarts from scratch (kNotFound is the one benign miss)
  // and still reproduces the reference bit for bit.
  SePrivGEmb trainer(g, ProximityKind::kPreferentialAttachment, cfg);
  TrainResult result;
  ASSERT_TRUE(trainer.TrainResumable(CkptOptions(ck_path), &result).ok());
  EXPECT_EQ(TrainDigest(result), TrainDigest(ref_result));
}

TEST_F(CrashRecoveryTest, OutOfCoreCrashAndRestartMatchesUninterrupted) {
  const Graph g = BarabasiAlbert(250, 4, /*seed=*/33);
  const SePrivGEmbConfig cfg = BaseConfig();
  const std::string shard_dir = root_ + "/shards";
  ASSERT_TRUE(WriteGraphShards(g, shard_dir, 3));

  // Uninterrupted reference (its own work dir and checkpoint path).
  OutOfCoreTrainOptions ref_ooc;
  ref_ooc.work_dir = root_ + "/ref_work";
  ref_ooc.sample_page_bytes = 4096;
  ref_ooc.checkpoint = CkptOptions(root_ + "/ref_ooc.ck");
  TrainResult ref_result;
  {
    auto store = SsdGraphStore::Open(shard_dir, /*budget_pages=*/2);
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(TryTrainOutOfCore(*store,
                                  ProximityKind::kPreferentialAttachment,
                                  cfg, ref_ooc, &ref_result)
                    .ok());
  }
  const TrainDigest ref(ref_result);

  // The out-of-core trainer hashes the weights it writes to the sample store
  // to the digest the in-memory trainer takes of its table, so a checkpoint
  // binds the same preference either way.
  {
    SePrivGEmb trainer(g, ProximityKind::kPreferentialAttachment, cfg);
    TrainResult r;
    ASSERT_TRUE(
        trainer.TrainResumable(CkptOptions(root_ + "/mem.ck"), &r).ok());
    TrainCheckpoint from_ooc, from_mem;
    ASSERT_TRUE(LoadCheckpoint(ref_ooc.checkpoint.path, &from_ooc).ok());
    ASSERT_TRUE(LoadCheckpoint(root_ + "/mem.ck", &from_mem).ok());
    EXPECT_EQ(from_ooc.preference_digest, from_mem.preference_digest);
  }

  struct CrashCase {
    const char* name;
    const char* spec;
    bool checkpoint_expected;  // a checkpoint survives the crash
  };
  const CrashCase kCases[] = {
      // Mid-sample-store build: before any epoch, so recovery restarts the
      // whole pipeline from its deterministic inputs.
      {"sample_build", "sample_store.append=crash@40", false},
      // After the second epoch's checkpoint published.
      {"epoch_boundary", "checkpoint.rename=crash@2", true},
  };

  int case_id = 0;
  for (const CrashCase& c : kCases) {
    SCOPED_TRACE(c.name);
    OutOfCoreTrainOptions ooc;
    ooc.work_dir = root_ + "/work" + std::to_string(case_id);
    ooc.sample_page_bytes = 4096;
    ooc.checkpoint =
        CkptOptions(root_ + "/ooc" + std::to_string(case_id) + ".ck");
    ++case_id;

    // The child opens its OWN store: nothing threaded is shared across fork.
    const int status = RunChild(c.spec, [&] {
      auto store = SsdGraphStore::Open(shard_dir, /*budget_pages=*/2);
      if (store == nullptr) ::_exit(4);
      TrainResult r;
      (void)TryTrainOutOfCore(*store,
                              ProximityKind::kPreferentialAttachment, cfg,
                              ooc, &r);
    });
    ASSERT_TRUE(CrashedAsInjected(status)) << "wait status " << status;

    TrainCheckpoint ck;
    const Status loaded = LoadCheckpoint(ooc.checkpoint.path, &ck);
    if (c.checkpoint_expected) {
      ASSERT_TRUE(loaded.ok()) << loaded.ToString();
      EXPECT_EQ(ck.epochs_run, 2u);
    } else {
      EXPECT_EQ(loaded.code(), StatusCode::kNotFound);
    }

    // Restart the same invocation — the crash-restart path is literally
    // rerunning the job; TryTrainOutOfCore picks the checkpoint up itself.
    auto store = SsdGraphStore::Open(shard_dir, /*budget_pages=*/2);
    ASSERT_NE(store, nullptr);
    TrainResult result;
    ASSERT_TRUE(TryTrainOutOfCore(*store,
                                  ProximityKind::kPreferentialAttachment,
                                  cfg, ooc, &result)
                    .ok());
    EXPECT_EQ(TrainDigest(result), ref);
  }
}

TEST_F(CrashRecoveryTest, ResumeRefusesForeignOrDamagedCheckpoints) {
  const Graph g = BarabasiAlbert(150, 4, /*seed=*/34);
  const SePrivGEmbConfig cfg = BaseConfig();
  const std::string ck_path = root_ + "/bind.ck";

  // Leave a mid-run checkpoint behind via an injected crash after epoch 2.
  const int status = RunChild("checkpoint.rename=crash@2", [&] {
    SePrivGEmb trainer(g, ProximityKind::kPreferentialAttachment, cfg);
    TrainResult r;
    (void)trainer.TrainResumable(CkptOptions(ck_path), &r);
  });
  ASSERT_TRUE(CrashedAsInjected(status)) << "wait status " << status;

  // A different graph: resuming would blend two privacy analyses. Refused —
  // and NOT silently retrained over, because the spend in the file is real.
  {
    const Graph other = BarabasiAlbert(150, 4, /*seed=*/35);
    SePrivGEmb trainer(other, ProximityKind::kPreferentialAttachment, cfg);
    TrainResult r;
    EXPECT_EQ(trainer.ResumeFromCheckpoint(CkptOptions(ck_path), &r).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(trainer.TrainResumable(CkptOptions(ck_path), &r).code(),
              StatusCode::kFailedPrecondition);
  }

  // Different result-affecting hyper-parameters: same refusal.
  {
    SePrivGEmbConfig changed = cfg;
    changed.max_epochs = 8;
    SePrivGEmb trainer(g, ProximityKind::kPreferentialAttachment, changed);
    TrainResult r;
    EXPECT_EQ(trainer.ResumeFromCheckpoint(CkptOptions(ck_path), &r).code(),
              StatusCode::kFailedPrecondition);
  }

  // A different structure preference under the same graph and config: a
  // DeepWalk run's checkpoint must not resume as a degree-preference run.
  {
    const std::string dw_path = root_ + "/deepwalk.ck";
    SePrivGEmb deepwalk(g, ProximityKind::kDeepWalk, cfg);
    TrainResult r;
    ASSERT_TRUE(deepwalk.TrainResumable(CkptOptions(dw_path), &r).ok());
    SePrivGEmb degree(g, ProximityKind::kPreferentialAttachment, cfg);
    const Status s = degree.ResumeFromCheckpoint(CkptOptions(dw_path), &r);
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(s.ToString().find("preference"), std::string::npos)
        << s.ToString();
  }

  // A borrowed table that differs in one weight is a different preference
  // too; the unchanged table still resumes.
  {
    const std::string table_path = root_ + "/table.ck";
    const EdgeProximity table = ComputeEdgeProximities(
        g, *MakeProximity(ProximityKind::kPreferentialAttachment, g));
    SePrivGEmb trainer(g, table, cfg);
    TrainResult r;
    ASSERT_TRUE(trainer.TrainResumable(CkptOptions(table_path), &r).ok());
    EdgeProximity changed = table;
    changed.values[7] = std::nextafter(changed.values[7], 2.0);
    changed.normalized[7] = std::nextafter(changed.normalized[7], 2.0);
    SePrivGEmb other(g, changed, cfg);
    EXPECT_EQ(other.ResumeFromCheckpoint(CkptOptions(table_path), &r).code(),
              StatusCode::kFailedPrecondition);
    SePrivGEmb same(g, table, cfg);
    EXPECT_TRUE(same.ResumeFromCheckpoint(CkptOptions(table_path), &r).ok());
  }

  // A damaged file is corruption, not a fresh start.
  {
    FILE* f = std::fopen(ck_path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 64, SEEK_SET);
    std::fputc(0x7f, f);
    std::fclose(f);
    SePrivGEmb trainer(g, ProximityKind::kPreferentialAttachment, cfg);
    TrainResult r;
    EXPECT_EQ(trainer.ResumeFromCheckpoint(CkptOptions(ck_path), &r).code(),
              StatusCode::kCorruption);
    EXPECT_EQ(trainer.TrainResumable(CkptOptions(ck_path), &r).code(),
              StatusCode::kCorruption);
  }

  // ResumeFromCheckpoint (unlike TrainResumable) demands a file.
  {
    SePrivGEmb trainer(g, ProximityKind::kPreferentialAttachment, cfg);
    TrainResult r;
    EXPECT_EQ(trainer
                  .ResumeFromCheckpoint(CkptOptions(root_ + "/absent.ck"),
                                        &r)
                  .code(),
              StatusCode::kNotFound);
  }
}

TEST_F(CrashRecoveryTest, CompletedRunRemovesCheckpointWhenAsked) {
  const Graph g = BarabasiAlbert(120, 4, /*seed=*/36);
  const SePrivGEmbConfig cfg = BaseConfig();
  const std::string ck_path = root_ + "/cleanup.ck";

  TrainCheckpointOptions opts = CkptOptions(ck_path);
  opts.remove_on_success = true;
  SePrivGEmb trainer(g, ProximityKind::kPreferentialAttachment, cfg);
  TrainResult r;
  ASSERT_TRUE(trainer.TrainResumable(opts, &r).ok());
  EXPECT_FALSE(std::filesystem::exists(ck_path));
  EXPECT_EQ(r.epochs_run, cfg.max_epochs);
}

}  // namespace
}  // namespace sepriv
