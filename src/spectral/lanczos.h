// Lanczos iteration with full reorthogonalisation for the extreme
// eigenvalues of large sparse symmetric operators.  Used when graphs grow
// past the comfortable range of the dense Jacobi solver (n > ~2000): the
// convergence-time experiments need only lambda_2, not the full spectrum.
#ifndef OPINDYN_SPECTRAL_LANCZOS_H
#define OPINDYN_SPECTRAL_LANCZOS_H

#include <functional>
#include <vector>

#include "src/support/rng.h"

namespace opindyn {

/// Symmetric operator y = A*x given as a callback.
using SymmetricOperator =
    std::function<void(const std::vector<double>& x, std::vector<double>& y)>;

struct LanczosResult {
  /// Ritz values sorted ascending (approximations of extreme eigenvalues).
  std::vector<double> ritz_values;
  int iterations = 0;
};

/// Runs `steps` Lanczos iterations on an n-dimensional operator.
/// `deflate` vectors (if any) are projected out of the Krylov space first
/// -- pass the known top eigenvector to expose lambda_2.  Polls the
/// ambient cancel token (cancel::poll) once per Krylov step.
LanczosResult lanczos(const SymmetricOperator& op, std::size_t n,
                      std::size_t steps, Rng& rng,
                      const std::vector<std::vector<double>>& deflate = {});

}  // namespace opindyn

#endif  // OPINDYN_SPECTRAL_LANCZOS_H
