// Gaussian mechanism (paper §II-B): A(G) = f(G) + N(0, S_f²σ²I), which
// satisfies (α, α/(2σ²))-RDP for every α > 1 [Mironov'17, Cor. 3].

#ifndef SEPRIVGEMB_DP_GAUSSIAN_MECHANISM_H_
#define SEPRIVGEMB_DP_GAUSSIAN_MECHANISM_H_

#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "util/check.h"
#include "util/privacy_annotations.h"
#include "util/rng.h"

namespace sepriv {

/// Adds i.i.d. N(0, stddev²) noise to every element of `values`.
SEPRIV_DP_SANITIZER
void AddGaussianNoise(std::span<double> values, double stddev, Rng& rng);

/// Adds i.i.d. N(0, stddev²) noise to every row of `m` — the naive
/// perturbation of paper Eq. (6). Marks `m` dp-sanitized when stddev > 0.
SEPRIV_DP_SANITIZER
void AddGaussianNoiseToAllRows(Matrix& m, double stddev, Rng& rng);

/// Value-semantics description of a Gaussian mechanism invocation.
/// Non-positive sensitivity or noise multiplier is a programmer error:
/// either one silently zeroes the injected noise while the accountant keeps
/// reporting a finite ε, i.e. a privacy claim with no mechanism behind it.
struct GaussianMechanism {
  double sensitivity = 1.0;       // S_f
  double noise_multiplier = 1.0;  // σ

  /// Standard deviation of the injected noise: S_f · σ.
  double Stddev() const {
    SEPRIV_CHECK(sensitivity > 0.0,
                 "sensitivity must be positive (got %g): S_f <= 0 means no "
                 "noise while the accountant still reports finite epsilon",
                 sensitivity);
    SEPRIV_CHECK(noise_multiplier > 0.0,
                 "noise multiplier must be positive (got %g)",
                 noise_multiplier);
    return sensitivity * noise_multiplier;
  }

  /// RDP at order alpha: α S_f² / (2 (S_f σ)²) = α / (2σ²).
  double Rdp(double alpha) const {
    SEPRIV_CHECK(noise_multiplier > 0.0,
                 "noise multiplier must be positive (got %g)",
                 noise_multiplier);
    return alpha / (2.0 * noise_multiplier * noise_multiplier);
  }
};

}  // namespace sepriv

#endif  // SEPRIVGEMB_DP_GAUSSIAN_MECHANISM_H_
