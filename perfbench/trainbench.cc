// End-to-end private-training benchmark: one workload per process.
//
//   trainbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --threads <t> --scratch <dir> [--reference]
//              [--expect <digest>] [--ref-op-s <seconds>]
//
// Untraced (--trace 0): sets the workload up five to fifteen times (median
// is setup_s), runs one warm-up op, then times training ops through the
// public entry point for about --seconds (at least three ops). Prints the
// end-to-end metrics.
//
// Traced (--trace 1): alternates traced replica ops (replica.h) with
// untraced entry-point ops and prints the per-layer metrics. Every op of
// either kind must reproduce the reference digest.
//
// --reference (oocore-degree only): trains the workload's graph in memory
// and prints the digest out-of-core ops must reproduce, so that in-memory
// run never shares a process, and its peak RSS, with the measured one.
//
// The last stdout line is the result object; the line before it is a meta
// object describing the run environment.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/se_privgemb.h"
#include "eval/strucequ.h"
#include "graph/generators.h"
#include "graph/shard.h"
#include "linalg/kernels.h"
#include "linalg/simd/cpu_features.h"
#include "replica.h"
#include "trace.h"
#include "util/mem.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using sepriv::Graph;
using sepriv::ProximityKind;
using sepriv::SePrivGEmbConfig;
using sepriv::Status;
using sepriv::TrainResult;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr size_t kMinSetups = 5;  // untraced runs report the median
constexpr size_t kMaxSetups = 15;
constexpr double kSetupSeconds = 1.0;
constexpr size_t kMinTimedOps = 3;
constexpr size_t kMinTracedOps = 2;
constexpr size_t kOocShards = 32;
constexpr size_t kOocPoolPages = 4;  // graph pool and sample pool alike

struct Workload {
  const char* name;
  bool out_of_core;
  ProximityKind preference;
  size_t batch_size;
  Graph (*make_graph)(uint64_t seed);
};

// Why each workload exists is recorded in README.md next to this file.
const Workload kWorkloads[] = {
    {"strucequ-deepwalk", false, ProximityKind::kDeepWalk, 128,
     [](uint64_t seed) {
       return sepriv::PowerLawCluster(100000, 5, 0.3, seed);
     }},
    {"bigbatch-degree", false, ProximityKind::kPreferentialAttachment, 1024,
     [](uint64_t seed) { return sepriv::BarabasiAlbert(100000, 5, seed); }},
    {"oocore-degree", true, ProximityKind::kPreferentialAttachment, 128,
     [](uint64_t seed) { return sepriv::BarabasiAlbert(20000, 5, seed); }},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t threads = 1;
  std::string scratch;
  bool reference = false;
  std::optional<ModelDigest> expect;
  double ref_op_s = 0.0;
};

std::string DigestString(const ModelDigest& d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64 ":%016" PRIx64 ":%016" PRIx64,
                d.w_in, d.w_out, d.loss);
  return buf;
}

std::optional<ModelDigest> ParseDigest(const char* s) {
  ModelDigest d;
  if (std::sscanf(s, "%16" SCNx64 ":%16" SCNx64 ":%16" SCNx64, &d.w_in,
                  &d.w_out, &d.loss) != 3) {
    return std::nullopt;
  }
  return d;
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "trainbench: %s\n", msg.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--reference") {
      a.reference = true;
      continue;
    }
    if (i + 1 >= argc) Die("missing value for " + flag);
    const char* v = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, v) == 0) a.workload = &w;
      }
      if (a.workload == nullptr) Die(std::string("unknown workload ") + v);
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--threads") {
      a.threads = std::strtoull(v, nullptr, 10);
    } else if (flag == "--scratch") {
      a.scratch = v;
    } else if (flag == "--expect") {
      a.expect = ParseDigest(v);
      if (!a.expect) Die(std::string("bad digest ") + v);
    } else if (flag == "--ref-op-s") {
      a.ref_op_s = std::strtod(v, nullptr);
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.workload == nullptr) Die("--workload is required");
  if (a.scratch.empty()) Die("--scratch is required");
  if (a.threads == 0) Die("--threads must be >= 1");
  return a;
}

/// A directory unique to this process, removed with everything in it when
/// the process ends normally.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent) {
    std::string tmpl = parent + "/trainbench-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      Die("cannot create a scratch directory under " + parent);
    }
    path_ = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

SePrivGEmbConfig MakeConfig(const Args& a) {
  SePrivGEmbConfig cfg;  // paper defaults: d=128, k=5, 200 epochs, σ=5, C=2
  cfg.batch_size = a.workload->batch_size;
  cfg.seed = a.seed;
  cfg.num_threads = a.threads;
  cfg.proximity_cache_path = "-";  // every op pays the precompute
  return cfg;
}

/// Result-line metrics, in insertion order.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "trainbench: metric %s is not finite\n",
                   name.c_str());
      finite_ = false;
      value = 0.0;
    }
    entries_.push_back({name, value, unit});
  }
  bool finite() const { return finite_; }

  std::string Json() const {
    std::string out = "{";
    char buf[128];
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                    i ? ", " : "", e.name.c_str(), e.value);
      out += buf;
      out += "\"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  bool finite_ = true;
};

/// Counts checked ops and keeps the first failure reasons for the meta line.
struct OpLedger {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> reasons;

  bool Record(const std::string& reason) {
    ++attempted;
    if (reason.empty()) return true;
    ++failed;
    std::fprintf(stderr, "trainbench: op %zu failed: %s\n", attempted,
                 reason.c_str());
    if (reasons.size() < 4) reasons.push_back(reason);
    return false;
  }
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
  }
  return out + "\"";
}

void PrintResult(bool correct, const OpLedger& ops, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct && m.finite() ? "true" : "false", ops.attempted,
              ops.failed, m.Json().c_str());
  std::fflush(stdout);
}

/// Everything one workload process holds between ops.
class Bench {
 public:
  Bench(const Args& args, const std::string& scratch)
      : a_(args), w_(*args.workload), cfg_(MakeConfig(args)),
        scratch_(scratch) {}

  /// Generates the graph (and, out of core, writes and opens its shards);
  /// returns the median wall time of one set-up. With `repeat`, sets up at
  /// least kMinSetups times and, for cheap set-ups, keeps going until
  /// kSetupSeconds have passed (at most kMaxSetups), so the median is steady.
  double Setup(bool repeat) {
    std::vector<double> times;
    const double start = NowSeconds();
    for (size_t r = 0;; ++r) {
      const bool more =
          r < kMinSetups ||
          (NowSeconds() - start < kSetupSeconds && r < kMaxSetups);
      if (r > 0 && (!repeat || !more)) break;
      graph_ = Graph();
      const std::string previous = shard_dir_;
      const double t0 = NowSeconds();
      graph_ = w_.make_graph(a_.seed);
      if (w_.out_of_core) {
        shard_dir_ = scratch_ + "/graph" + std::to_string(r);
        if (!sepriv::WriteGraphShards(graph_, shard_dir_, kOocShards)) {
          Die("cannot write shards under " + shard_dir_);
        }
        if (sepriv::SsdGraphStore::Open(shard_dir_, kOocPoolPages) ==
            nullptr) {
          Die("cannot open the shard store " + shard_dir_);
        }
      }
      times.push_back(NowSeconds() - t0);
      setups_ = times.size();
      if (!previous.empty()) {
        std::error_code ec;
        std::filesystem::remove_all(previous, ec);
      }
    }
    return Median(times);
  }

  /// Constructor + Train() on the resident graph; `*secs` is its wall time.
  void InMemoryOp(TrainResult* out, double* secs) {
    *out = TrainResult();  // release the previous model before training
    const double t0 = NowSeconds();
    {
      sepriv::SePrivGEmb trainer(graph_, w_.preference, cfg_);
      *out = trainer.Train();
    }
    *secs = NowSeconds() - t0;
  }

  /// One op through the workload's public entry point.
  Status EntryOp(TrainResult* out, double* secs) {
    if (!w_.out_of_core) {
      InMemoryOp(out, secs);
      return sepriv::OkStatus();
    }
    *out = TrainResult();
    auto store = OpenStore();
    const sepriv::OutOfCoreTrainOptions ooc = FreshOocOptions();
    const double t0 = NowSeconds();
    const Status st = sepriv::TryTrainOutOfCore(*store, w_.preference, cfg_,
                                                ooc, out);
    *secs = NowSeconds() - t0;
    RemoveWorkDir(ooc);
    return st;
  }

  /// One op through the traced replica.
  Status TracedOp(TrainResult* out, Trace& trace, LayerCounters& c) {
    *out = TrainResult();
    if (!w_.out_of_core) {
      return TracedTrain(graph_, w_.preference, cfg_, {}, trace, c, out);
    }
    auto store = OpenStore();
    const sepriv::OutOfCoreTrainOptions ooc = FreshOocOptions();
    const Status st = TracedTrainOutOfCore(*store, cfg_, ooc, trace, c, out);
    RemoveWorkDir(ooc);
    return st;
  }

  const Graph& graph() const { return graph_; }
  const SePrivGEmbConfig& config() const { return cfg_; }
  size_t setups() const { return setups_; }

 private:
  std::unique_ptr<sepriv::SsdGraphStore> OpenStore() {
    auto store = sepriv::SsdGraphStore::Open(shard_dir_, kOocPoolPages);
    if (store == nullptr) Die("cannot open the shard store " + shard_dir_);
    return store;
  }

  sepriv::OutOfCoreTrainOptions FreshOocOptions() {
    sepriv::OutOfCoreTrainOptions ooc;
    ooc.work_dir = scratch_ + "/work" + std::to_string(next_work_++);
    ooc.sample_pool_pages = kOocPoolPages;
    return ooc;
  }

  static void RemoveWorkDir(const sepriv::OutOfCoreTrainOptions& ooc) {
    std::error_code ec;
    std::filesystem::remove_all(ooc.work_dir, ec);
  }

  const Args& a_;
  const Workload& w_;
  SePrivGEmbConfig cfg_;
  std::string scratch_;
  Graph graph_;
  std::string shard_dir_;
  size_t next_work_ = 0;
  size_t setups_ = 0;
};

void PrintMeta(const Args& a, const Bench& bench,
               const std::vector<std::pair<std::string, std::string>>& extra) {
  std::string out = "{\"meta\": {";
  const auto add = [&](const std::string& k, const std::string& json) {
    if (out.back() != '{') out += ", ";
    out += JsonString(k) + ": " + json;
  };
  add("workload", JsonString(a.workload->name));
  add("seed", std::to_string(a.seed));
  add("trace", a.trace ? "1" : "0");
  add("threads", std::to_string(bench.config().ResolvedThreads()));
  add("hardware_threads",
      std::to_string(sepriv::ThreadPool::ResolveThreads(0)));
  add("simd",
      JsonString(sepriv::simd::LevelName(sepriv::simd::ActiveLevel())));
  add("cpu_features", JsonString(sepriv::simd::CpuFeatureString()));
  add("build_type", JsonString(PERFBENCH_BUILD_TYPE));
  add("nodes", std::to_string(bench.graph().num_nodes()));
  add("edges", std::to_string(bench.graph().num_edges()));
  add("batch_size", std::to_string(bench.config().batch_size));
  if (a.workload->out_of_core) {
    add("shards", std::to_string(kOocShards));
    add("pool_pages", std::to_string(kOocPoolPages));
  }
  for (const auto& [k, v] : extra) add(k, v);
  std::printf("%s}}\n", out.c_str());
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + JsonString(items[i]);
  }
  return out + "]";
}

std::string Fixed(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

std::string JsonNumbers(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + Fixed(values[i]);
  }
  return out + "]";
}

/// In-memory reference for the out-of-core workload.
int RunReference(const Args& a, const std::string& scratch) {
  Bench bench(a, scratch);
  bench.Setup(false);
  TrainResult r;
  double secs = 0.0;
  bench.InMemoryOp(&r, &secs);
  const ModelDigest ref = DigestOf(r);
  std::string spans;
  if (a.trace) {
    Trace trace;
    LayerCounters c;
    TrainResult traced;
    const Status st = TracedTrain(bench.graph(), a.workload->preference,
                                  bench.config(), {}, trace, c, &traced);
    if (!CheckOp(st, traced, bench.config(), ref).empty()) {
      Die("in-memory replica does not reproduce the reference");
    }
    for (const char* name : {"prox.compute", "sample.alg1", "init",
                             "engine.init", "epochs", "epoch.accumulate",
                             "epoch.noise", "epoch.apply", "finalize"}) {
      spans += std::string(spans.empty() ? "" : ", ") + JsonString(name) +
               ": " + Fixed(trace.Total(name));
    }
    spans = ", \"spans_s\": {" + spans + "}";
  }
  std::printf("{\"reference\": {\"digest\": \"%s\", \"op_s\": %.17g%s}}\n",
              DigestString(ref).c_str(), secs, spans.c_str());
  return 0;
}

int RunUntraced(const Args& a, const std::string& scratch) {
  Bench bench(a, scratch);
  const double setup_s = bench.Setup(true);
  const SePrivGEmbConfig& cfg = bench.config();
  OpLedger ops;

  TrainResult r;
  double warmup_s = 0.0;
  Status st = bench.EntryOp(&r, &warmup_s);
  const ModelDigest expected = a.expect ? *a.expect : DigestOf(r);
  ops.Record(CheckOp(st, r, cfg, expected));

  std::vector<double> op_s;
  const double start = NowSeconds();
  // Stop before an op that would end past --seconds, so a run measures
  // about --seconds whatever the op length.
  while (op_s.size() < kMinTimedOps ||
         NowSeconds() - start + Median(op_s) <= a.seconds) {
    double secs = 0.0;
    st = bench.EntryOp(&r, &secs);
    ops.Record(CheckOp(st, r, cfg, expected));
    op_s.push_back(secs);
  }
  const double utility = sepriv::StrucEqu(bench.graph(), r.model.w_in);

  Metrics m;
  m.Add("train_s", Median(op_s), "s");
  m.Add("peak_rss_mb", static_cast<double>(sepriv::PeakRssBytes()) / kMiB,
        "MB");
  m.Add("utility", utility, "r");
  m.Add("setup_s", setup_s, "s");

  PrintMeta(a, bench,
            {{"setups", std::to_string(bench.setups())},
             {"timed_ops", std::to_string(op_s.size())},
             {"train_s_samples", JsonNumbers(op_s)},
             {"warmup_s", Fixed(warmup_s)},
             {"digest", JsonString(DigestString(expected))},
             {"failures", JsonList(ops.reasons)}});
  // A structure-preference embedding that does not correlate positively
  // with structure is wrong even when it is reproducible.
  PrintResult(ops.failed == 0 && utility > 0.0, ops, m);
  return 0;
}

/// Per-layer numbers of one traced op.
std::map<std::string, double> LayerMetrics(const Trace& t,
                                           const LayerCounters& c) {
  std::map<std::string, double> m;
  const auto per_s = [](double work, double secs) {
    return secs > 0.0 ? work / secs : 0.0;
  };
  const double edges = static_cast<double>(c.edges);
  m["prox.compute_s"] = t.Total("prox.compute");
  m["prox.edges_per_s"] = per_s(edges, m["prox.compute_s"]);
  m["sample.alg1_s"] = t.Total("sample.alg1");
  m["sample.subgraphs_per_s"] = per_s(edges, m["sample.alg1_s"]);
  m["init_s"] = t.Total("init");
  m["oracle.shard_switches"] = static_cast<double>(c.oracle_shard_switches);
  m["engine.init_s"] = t.Total("engine.init");
  m["epoch.batch_s"] = t.Total("epoch.batch");
  m["epoch.accumulate_s"] = t.Total("epoch.accumulate");
  m["epoch.noise_s"] = t.Total("epoch.noise");
  m["epoch.apply_s"] = t.Total("epoch.apply");
  m["noise.mdraws_per_s"] =
      per_s(static_cast<double>(c.noise_draws), m["epoch.noise_s"]) / 1e6;
  m["accumulate.samples_per_s"] =
      per_s(static_cast<double>(c.samples_accumulated),
            m["epoch.accumulate_s"]);
  m["engine.rss_mb"] = c.engine_rss_mb;
  m["ooc.degree_scan_s"] = t.Total("ooc.degree_scan");

  const sepriv::BufferPoolStats g = GraphPoolTotal(c);
  const sepriv::BufferPoolStats& sp = c.sample_pool;
  const auto ratio = [](uint64_t hits, uint64_t misses) {
    return hits + misses > 0
               ? static_cast<double>(hits) / static_cast<double>(hits + misses)
               : 0.0;
  };
  m["graph_pool.hits"] = static_cast<double>(g.hits);
  m["graph_pool.misses"] = static_cast<double>(g.misses);
  m["graph_pool.hit_ratio"] = ratio(g.hits, g.misses);
  m["graph_pool.prefetch_loads"] = static_cast<double>(g.prefetch_loads);
  m["graph_pool.read_retries"] = static_cast<double>(g.read_retries);
  m["graph_pool.misses.degree_scan"] =
      static_cast<double>(c.graph_pool_degree_scan.misses);
  m["graph_pool.misses.prox"] = static_cast<double>(c.graph_pool_prox.misses);
  m["graph_pool.misses.alg1"] = static_cast<double>(c.graph_pool_alg1.misses);
  m["sample_pool.hits"] = static_cast<double>(sp.hits);
  m["sample_pool.misses"] = static_cast<double>(sp.misses);
  m["sample_pool.hit_ratio"] = ratio(sp.hits, sp.misses);
  // Pages read from disk: demand misses plus background prefetches.
  m["io.bytes_read"] =
      static_cast<double>((g.misses + g.prefetch_loads) * c.graph_page_bytes +
                          (sp.misses + sp.prefetch_loads) *
                              c.sample_page_bytes);
  m["sample_store.bytes_written"] = static_cast<double>(c.sample_store_bytes);

  m["trace.coverage"] = t.CoverageRatio(0);
  m["trace.op_s"] = t.spans()[0].duration();
  return m;
}

// Name and unit of every per-layer metric, in output order (BENCHMARK.json
// lists the same names).
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"prox.compute_s", "s"},
    {"prox.edges_per_s", "edges/s"},
    {"sample.alg1_s", "s"},
    {"sample.subgraphs_per_s", "subgraphs/s"},
    {"init_s", "s"},
    {"oracle.shard_switches", "count"},
    {"engine.init_s", "s"},
    {"epoch.batch_s", "s"},
    {"epoch.accumulate_s", "s"},
    {"epoch.noise_s", "s"},
    {"epoch.apply_s", "s"},
    {"noise.mdraws_per_s", "Mdraws/s"},
    {"accumulate.samples_per_s", "samples/s"},
    {"engine.rss_mb", "MB"},
    {"ooc.degree_scan_s", "s"},
    {"graph_pool.hits", "count"},
    {"graph_pool.misses", "count"},
    {"graph_pool.hit_ratio", "ratio"},
    {"graph_pool.prefetch_loads", "count"},
    {"graph_pool.read_retries", "count"},
    {"graph_pool.misses.degree_scan", "count"},
    {"graph_pool.misses.prox", "count"},
    {"graph_pool.misses.alg1", "count"},
    {"sample_pool.hits", "count"},
    {"sample_pool.misses", "count"},
    {"sample_pool.hit_ratio", "ratio"},
    {"io.bytes_read", "bytes"},
    {"sample_store.bytes_written", "bytes"},
    {"trace.coverage", "ratio"},
    {"trace.op_s", "s"},
};

int RunTraced(const Args& a, const std::string& scratch) {
  Bench bench(a, scratch);
  bench.Setup(false);
  const SePrivGEmbConfig& cfg = bench.config();
  OpLedger ops;

  // The untraced entry point fixes the digest every traced op must match;
  // out of core, it must also match the in-memory reference.
  TrainResult r;
  double warmup_s = 0.0;
  Status st = bench.EntryOp(&r, &warmup_s);
  const ModelDigest expected = a.expect ? *a.expect : DigestOf(r);
  bool identical = ops.Record(CheckOp(st, r, cfg, expected));

  std::vector<std::map<std::string, double>> per_op;
  std::vector<double> step_ms, untraced_s;
  const double start = NowSeconds();
  for (;;) {
    Trace trace;
    LayerCounters c;
    st = bench.TracedOp(&r, trace, c);
    identical = ops.Record(CheckOp(st, r, cfg, expected)) && identical;
    per_op.push_back(LayerMetrics(trace, c));
    step_ms.insert(step_ms.end(), c.step_ms.begin(), c.step_ms.end());
    // Stop before a further (untraced, traced) pair would end past
    // --seconds.
    const double next_pair =
        Median(untraced_s) + per_op.back().at("trace.op_s");
    if (per_op.size() >= kMinTracedOps && !untraced_s.empty() &&
        NowSeconds() - start + next_pair > a.seconds) {
      break;
    }
    double secs = 0.0;
    st = bench.EntryOp(&r, &secs);
    identical = ops.Record(CheckOp(st, r, cfg, expected)) && identical;
    untraced_s.push_back(secs);
  }

  const double eval_t0 = NowSeconds();
  const double utility = sepriv::StrucEqu(bench.graph(), r.model.w_in);
  const double eval_s = NowSeconds() - eval_t0;

  Metrics m;
  for (const auto& [name, unit] : kLayerMetrics) {
    std::vector<double> v;
    for (const auto& op : per_op) v.push_back(op.at(name));
    m.Add(name, Median(v), unit);
  }
  const double tail_p = TailPercentileFor(step_ms.size());
  m.Add("epoch.step_ms.p50", Percentile(step_ms, 50.0), "ms");
  // Without enough steps for a tail, report the maximum rather than nothing.
  m.Add("epoch.step_ms.tail",
        tail_p > 0.0 ? Percentile(step_ms, tail_p) : Percentile(step_ms, 100),
        "ms");
  m.Add("eval.strucequ_s", eval_s, "s");
  const double untraced = Median(untraced_s);
  std::vector<double> traced_s;
  for (const auto& op : per_op) traced_s.push_back(op.at("trace.op_s"));
  m.Add("trace.overhead", Median(traced_s) / untraced - 1.0, "ratio");
  m.Add("trace.identical", identical ? 1.0 : 0.0, "bool");
  m.Add("ref.inmem_op_s", a.workload->out_of_core ? a.ref_op_s : untraced,
        "s");

  PrintMeta(a, bench,
            {{"traced_ops", std::to_string(per_op.size())},
             {"untraced_ops", std::to_string(untraced_s.size())},
             {"epoch_steps", std::to_string(step_ms.size())},
             {"tail_percentile", Fixed(tail_p > 0.0 ? tail_p : 100.0)},
             {"utility", Fixed(utility)},
             {"warmup_s", Fixed(warmup_s)},
             {"digest", JsonString(DigestString(expected))},
             {"failures", JsonList(ops.reasons)}});
  PrintResult(ops.failed == 0 && identical && utility > 0.0, ops, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const char* failpoints = std::getenv("SEPRIV_FAILPOINTS");
  if (failpoints != nullptr && failpoints[0] != '\0') {
    Die("SEPRIV_FAILPOINTS is armed; refusing to measure injected faults");
  }
  const Args args = ParseArgs(argc, argv);
  sepriv::kernels::SetLinalgThreads(args.threads);
  ScratchDir scratch(args.scratch);
  if (args.reference) return RunReference(args, scratch.path());
  if (args.workload->out_of_core && !args.expect) {
    Die("oocore-degree needs --expect from a --reference process");
  }
  return args.trace ? RunTraced(args, scratch.path())
                    : RunUntraced(args, scratch.path());
}
