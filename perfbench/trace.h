// Outside-in tracing for the end-to-end training benchmark.
//
// A Trace records spans around the calls the benchmark's replicas make into
// each library layer: name, start, end, and the enclosing span. Spans stay in
// memory and are summarised when the op ends. All spans of one op come from
// one thread and nest strictly, so a span's children never overlap each
// other; the interval arithmetic below does not rely on that and merges
// overlapping children anyway.
//
// The statistics helpers (median, nearest-rank percentiles, the tail rank
// rule) and the op check live here too, so the self-test covers every piece
// of arithmetic a reported number goes through.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/se_privgemb.h"

namespace perfbench {

struct Span {
  std::string name;
  int parent = -1;  // index of the enclosing span; -1 for a root
  double begin_s = 0.0;
  double end_s = 0.0;

  double duration() const { return end_s - begin_s; }
};

class Trace {
 public:
  Trace() : origin_(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its index.
  int Open(std::string name);
  /// Closes span `index`, which must be the innermost open span.
  void Close(int index);

  /// Adds a finished span directly (tests build span trees with this).
  int Add(std::string name, int parent, double begin_s, double end_s);

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of every span called `name`.
  double Total(std::string_view name) const;

  /// Length of the union of the direct children's intervals of `index`,
  /// clipped to the span itself.
  double ChildCoverage(int index) const;

  /// The span's duration minus the part its direct children cover.
  double SelfTime(int index) const;

  /// 1 - SelfTime / duration: the share of the span explained by named
  /// children. 0 for an empty span.
  double CoverageRatio(int index) const;

 private:
  using Clock = std::chrono::steady_clock;
  double Now() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: open at construction, closed at scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, std::string name)
      : trace_(trace), index_(trace.Open(std::move(name))) {}
  ~ScopedSpan() { trace_.Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace& trace_;
  int index_;
};

/// steady_clock time in seconds, for the benchmark's own timers.
double NowSeconds();

/// Median (mean of the middle pair for an even count). 0 for no samples.
double Median(std::vector<double> v);

/// Nearest-rank percentile: the value at rank ceil(p/100 · n), 1-based.
double Percentile(std::vector<double> v, double p);

/// The highest percentile on the ladder {99.9, 99, 98, 95, 90} that leaves
/// at least ten samples strictly above its rank; 0 when even p90 does not
/// (fewer than 100 samples).
double TailPercentileFor(size_t num_samples);

/// What an op must reproduce: digests of both published matrices and of the
/// loss curve.
struct ModelDigest {
  uint64_t w_in = 0;
  uint64_t w_out = 0;
  uint64_t loss = 0;

  bool operator==(const ModelDigest&) const = default;
};

ModelDigest DigestOf(const sepriv::TrainResult& result);

/// Why an op failed, or empty when it passed: a non-OK status, a digest that
/// differs from `expected`, fewer or more epochs than configured, or more ε
/// spent than the target.
std::string CheckOp(const sepriv::Status& status,
                    const sepriv::TrainResult& result,
                    const sepriv::SePrivGEmbConfig& cfg,
                    const ModelDigest& expected);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
