#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "util/check.h"
#include "util/digest.h"

namespace perfbench {

double Trace::Now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

int Trace::Open(std::string name) {
  const int parent = open_.empty() ? -1 : open_.back();
  const double now = Now();
  const int index = Add(std::move(name), parent, now, now);
  open_.push_back(index);
  return index;
}

void Trace::Close(int index) {
  SEPRIV_CHECK(!open_.empty() && open_.back() == index,
               "span %d closed out of order", index);
  open_.pop_back();
  spans_[index].end_s = Now();
}

int Trace::Add(std::string name, int parent, double begin_s, double end_s) {
  spans_.push_back({std::move(name), parent, begin_s, end_s});
  return static_cast<int>(spans_.size()) - 1;
}

double Trace::Total(std::string_view name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.duration();
  }
  return total;
}

double Trace::ChildCoverage(int index) const {
  const Span& self = spans_[index];
  std::vector<std::pair<double, double>> iv;
  for (const Span& s : spans_) {
    if (s.parent != index) continue;
    const double b = std::max(s.begin_s, self.begin_s);
    const double e = std::min(s.end_s, self.end_s);
    if (e > b) iv.emplace_back(b, e);
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0.0;
  double run_b = 0.0, run_e = 0.0;
  bool open = false;
  for (const auto& [b, e] : iv) {
    if (open && b <= run_e) {
      run_e = std::max(run_e, e);
      continue;
    }
    if (open) covered += run_e - run_b;
    run_b = b;
    run_e = e;
    open = true;
  }
  if (open) covered += run_e - run_b;
  return covered;
}

double Trace::SelfTime(int index) const {
  return spans_[index].duration() - ChildCoverage(index);
}

double Trace::CoverageRatio(int index) const {
  const double d = spans_[index].duration();
  return d > 0.0 ? 1.0 - SelfTime(index) / d : 0.0;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  // The epsilon keeps an exact product such as 0.95 · 200 from rounding up
  // to the next rank.
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double TailPercentileFor(size_t num_samples) {
  // Ladder in tenths of a percent, so the rank arithmetic stays integral.
  for (const size_t p10 : {999, 990, 980, 950, 900}) {
    const size_t rank = (p10 * num_samples + 999) / 1000;
    if (num_samples >= rank + 10) return static_cast<double>(p10) / 10.0;
  }
  return 0.0;
}

ModelDigest DigestOf(const sepriv::TrainResult& result) {
  const auto& loss = result.loss_curve;
  return {sepriv::MatrixDigest(result.model.w_in),
          sepriv::MatrixDigest(result.model.w_out),
          sepriv::FnvDigest(loss.data(), loss.size() * sizeof(double))};
}

std::string CheckOp(const sepriv::Status& status,
                    const sepriv::TrainResult& result,
                    const sepriv::SePrivGEmbConfig& cfg,
                    const ModelDigest& expected) {
  if (!status.ok()) return "status " + status.ToString();
  if (result.epochs_run != cfg.max_epochs) {
    return "ran " + std::to_string(result.epochs_run) + " of " +
           std::to_string(cfg.max_epochs) + " epochs";
  }
  if (!(result.spent_epsilon <= cfg.epsilon)) {
    return "spent epsilon " + std::to_string(result.spent_epsilon) +
           " > target " + std::to_string(cfg.epsilon);
  }
  const ModelDigest got = DigestOf(result);
  if (!(got == expected)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "digest %016llx != expected %016llx",
                  static_cast<unsigned long long>(got.w_in),
                  static_cast<unsigned long long>(expected.w_in));
    return buf;
  }
  return "";
}

}  // namespace perfbench
