// Self-test of the benchmark's own helpers: the statistics every reported
// number goes through, the span arithmetic behind coverage and self time,
// the op check (a perturbed model must fail it), and the replicas' fidelity
// to the entry points on small graphs.
//
//   ctest --test-dir .bench_build      (or run perfbench_selftest directly)
//
// Writes only under a fresh directory in the current working directory.

#include <stdlib.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/se_privgemb.h"
#include "graph/generators.h"
#include "graph/shard.h"
#include "replica.h"
#include "trace.h"

namespace {

using namespace perfbench;

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void TestMedianAndPercentiles() {
  EXPECT(Median({}) == 0.0);
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(Median({4.0, 1.0, 3.0, 2.0}) == 2.5);

  std::vector<double> v;
  for (int i = 200; i >= 1; --i) v.push_back(i);
  EXPECT(Percentile(v, 50.0) == 100.0);
  EXPECT(Percentile(v, 95.0) == 190.0);  // 0.95 · 200 must not round up
  EXPECT(Percentile(v, 100.0) == 200.0);
  EXPECT(Percentile({7.0}, 99.0) == 7.0);

  // The tail is the highest ladder percentile with >= 10 samples beyond it.
  EXPECT(TailPercentileFor(0) == 0.0);
  EXPECT(TailPercentileFor(99) == 0.0);
  EXPECT(TailPercentileFor(100) == 90.0);
  EXPECT(TailPercentileFor(200) == 95.0);
  EXPECT(TailPercentileFor(499) == 95.0);
  EXPECT(TailPercentileFor(500) == 98.0);
  EXPECT(TailPercentileFor(1000) == 99.0);
  EXPECT(TailPercentileFor(10000) == 99.9);
}

void TestSpanArithmetic() {
  Trace t;
  const int root = t.Add("op", -1, 0.0, 10.0);
  const int a = t.Add("a", root, 1.0, 3.0);
  t.Add("b", root, 2.0, 5.0);         // overlaps a: union is [1, 5]
  t.Add("c", root, 7.0, 8.0);
  t.Add("late", root, 9.0, 12.0);     // clipped to the parent: [9, 10]
  t.Add("grandchild", a, 1.5, 2.0);   // covers a, not the root
  EXPECT(Near(t.ChildCoverage(root), 6.0));
  EXPECT(Near(t.SelfTime(root), 4.0));
  EXPECT(Near(t.CoverageRatio(root), 0.6));
  EXPECT(Near(t.SelfTime(a), 1.5));
  EXPECT(Near(t.Total("b"), 3.0));

  Trace empty;
  const int z = empty.Add("z", -1, 1.0, 1.0);
  EXPECT(empty.CoverageRatio(z) == 0.0);

  // Scoped spans nest under the innermost open span.
  Trace live;
  {
    ScopedSpan op(live, "op");
    { ScopedSpan x(live, "x"); }
    { ScopedSpan y(live, "y"); }
  }
  EXPECT(live.spans().size() == 3);
  EXPECT(live.spans()[1].parent == 0 && live.spans()[2].parent == 0);
  EXPECT(live.spans()[0].end_s >= live.spans()[2].end_s);
  EXPECT(live.CoverageRatio(0) <= 1.0);
}

sepriv::SePrivGEmbConfig SmallConfig() {
  sepriv::SePrivGEmbConfig cfg;
  cfg.dim = 8;
  cfg.batch_size = 16;
  cfg.max_epochs = 6;
  cfg.seed = 11;
  cfg.num_threads = 2;
  // Cache off. Assigning the literal "-" trips a gcc 12 -Wrestrict false
  // positive.
  cfg.proximity_cache_path = std::string(1, '-');
  return cfg;
}

void TestOpCheck() {
  const sepriv::Graph g = sepriv::KarateClub();
  const sepriv::SePrivGEmbConfig cfg = SmallConfig();
  sepriv::SePrivGEmb trainer(g, sepriv::ProximityKind::kPreferentialAttachment,
                             cfg);
  const sepriv::TrainResult good = trainer.Train();
  const ModelDigest expected = DigestOf(good);
  const sepriv::Status ok = sepriv::OkStatus();
  EXPECT(CheckOp(ok, good, cfg, expected).empty());

  sepriv::TrainResult bad = good;
  double& x = bad.model.w_in.data()[5];
  x = std::nextafter(x, 1.0);  // one ulp in one weight
  EXPECT(CheckOp(ok, bad, cfg, expected).find("digest") == 0);

  bad = good;
  bad.model.w_out.data()[0] += 1.0;
  EXPECT(!CheckOp(ok, bad, cfg, expected).empty());

  bad = good;
  bad.loss_curve.back() += 1e-9;
  EXPECT(!CheckOp(ok, bad, cfg, expected).empty());

  bad = good;
  bad.epochs_run -= 1;
  EXPECT(CheckOp(ok, bad, cfg, expected).find("ran") == 0);

  bad = good;
  bad.spent_epsilon = cfg.epsilon * 1.01;
  EXPECT(CheckOp(ok, bad, cfg, expected).find("spent") == 0);

  EXPECT(CheckOp(sepriv::IoError("disk"), good, cfg, expected)
             .find("status") == 0);
}

void TestReplicaFidelity(const std::string& dir) {
  const sepriv::SePrivGEmbConfig cfg = SmallConfig();
  const sepriv::Graph g = sepriv::BarabasiAlbert(400, 3, 5);
  const auto kind = sepriv::ProximityKind::kPreferentialAttachment;
  sepriv::SePrivGEmb trainer(g, kind, cfg);
  const ModelDigest ref = DigestOf(trainer.Train());

  for (const auto k : {kind, sepriv::ProximityKind::kDeepWalk}) {
    sepriv::SePrivGEmb entry(g, k, cfg);
    const ModelDigest want = DigestOf(entry.Train());
    Trace t;
    LayerCounters c;
    sepriv::TrainResult got;
    const sepriv::Status st = TracedTrain(g, k, cfg, {}, t, c, &got);
    EXPECT(CheckOp(st, got, cfg, want).empty());
    EXPECT(c.step_ms.size() == cfg.max_epochs);
    EXPECT(c.samples_accumulated == cfg.max_epochs * cfg.batch_size);
    EXPECT(c.noise_draws > 0 && c.noise_draws % cfg.dim == 0);
    EXPECT(t.CoverageRatio(0) > 0.5 && t.CoverageRatio(0) <= 1.0);
  }

  const std::string shards = dir + "/graph";
  EXPECT(sepriv::WriteGraphShards(g, shards, 6));
  auto store = sepriv::SsdGraphStore::Open(shards, 2);
  EXPECT(store != nullptr);
  if (store == nullptr) return;
  sepriv::OutOfCoreTrainOptions ooc;
  ooc.work_dir = dir + "/work";
  ooc.sample_pool_pages = 2;
  ooc.sample_page_bytes = 4096;  // several sample pages on a small graph
  Trace t;
  LayerCounters c;
  sepriv::TrainResult got;
  const sepriv::Status st = TracedTrainOutOfCore(*store, cfg, ooc, t, c, &got);
  EXPECT(CheckOp(st, got, cfg, ref).empty());
  EXPECT(c.oracle_shard_switches > 0);
  EXPECT(GraphPoolTotal(c).hits + GraphPoolTotal(c).misses > 0);
  EXPECT(c.sample_pool.hits + c.sample_pool.misses > 0);
  EXPECT(c.sample_store_bytes > 0);
  EXPECT(t.Total("ooc.degree_scan") > 0.0);
}

}  // namespace

int main() {
  std::string tmpl =
      (std::filesystem::current_path() / "perfbench_selftest-XXXXXX").string();
  if (::mkdtemp(tmpl.data()) == nullptr) {
    std::fprintf(stderr, "cannot create a scratch directory\n");
    return 1;
  }
  TestMedianAndPercentiles();
  TestSpanArithmetic();
  TestOpCheck();
  TestReplicaFidelity(tmpl);
  std::error_code ec;
  std::filesystem::remove_all(tmpl, ec);
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-test passed\n");
  return 0;
}
