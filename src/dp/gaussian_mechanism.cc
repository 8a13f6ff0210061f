#include "dp/gaussian_mechanism.h"

#include "linalg/kernels.h"
#include "util/check.h"

namespace sepriv {

void AddGaussianNoise(std::span<double> values, double stddev, Rng& rng) {
  SEPRIV_CHECK(stddev >= 0.0, "noise stddev must be non-negative");
  if (stddev == 0.0) return;
  // Block Box–Muller fill: no cached-second-value branch per element.
  kernels::AccumulateGaussian(rng, values.data(), values.size(), stddev);
}

void AddGaussianNoiseToAllRows(Matrix& m, double stddev, Rng& rng) {
  AddGaussianNoise({m.data(), m.size()}, stddev, rng);
  if (stddev > 0.0) m.MarkDpSanitized();
}

}  // namespace sepriv
