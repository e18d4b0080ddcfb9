// Stationary distributions of general (not necessarily reversible) finite
// Markov chains by left power iteration.  The Q-chain of Section 5.3 is
// irreducible and aperiodic but NOT reversible, so symmetric solvers do
// not apply; power iteration on mu <- mu Q converges geometrically.
#ifndef OPINDYN_SPECTRAL_POWER_ITERATION_H
#define OPINDYN_SPECTRAL_POWER_ITERATION_H

#include <vector>

#include "src/spectral/matrix.h"

namespace opindyn {

struct StationaryResult {
  std::vector<double> distribution;
  int iterations = 0;
  /// ||mu Q - mu||_1 at termination.
  double residual = 0.0;
  bool converged = false;
};

/// Left power iteration mu <- mu Q from the uniform start until the L1
/// step change drops below `tolerance` or `max_iterations` is hit.
/// `transition` must be row-stochastic.  Polls the ambient cancel token
/// (cancel::poll) once per iteration, so a serve deadline stops a slow
/// chain within one mu Q.
StationaryResult stationary_distribution(const Matrix& transition,
                                         double tolerance = 1e-14,
                                         int max_iterations = 2000000);

}  // namespace opindyn

#endif  // OPINDYN_SPECTRAL_POWER_ITERATION_H
