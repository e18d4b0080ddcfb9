#include "src/spectral/lanczos.h"

#include <algorithm>
#include <cmath>

#include "src/spectral/jacobi.h"
#include "src/spectral/matrix.h"
#include "src/service/cancel_token.h"
#include "src/support/assert.h"

namespace opindyn {

namespace {
void orthogonalize_against(std::vector<double>& v,
                           const std::vector<std::vector<double>>& basis) {
  for (const auto& b : basis) {
    const double coefficient = dot(v, b);
    axpy(-coefficient, b, v);
  }
}
}  // namespace

LanczosResult lanczos(const SymmetricOperator& op, std::size_t n,
                      std::size_t steps, Rng& rng,
                      const std::vector<std::vector<double>>& deflate) {
  OPINDYN_EXPECTS(n >= 2, "lanczos needs dimension >= 2");
  steps = std::min(steps, n);
  OPINDYN_EXPECTS(steps >= 1, "lanczos needs at least one step");

  std::vector<std::vector<double>> basis;
  basis.reserve(steps);
  std::vector<double> alpha;
  std::vector<double> beta;

  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.next_gaussian();
  }
  orthogonalize_against(v, deflate);
  double len = norm2(v);
  OPINDYN_ENSURES(len > 0.0, "lanczos start vector collapsed");
  scale(v, 1.0 / len);
  basis.push_back(v);

  std::vector<double> w(n);
  int iterations = 0;
  for (std::size_t j = 0; j < steps; ++j) {
    // One poll per Krylov step: a cancelled job stops within one
    // operator application and reorthogonalisation.
    cancel::poll();
    ++iterations;
    op(basis[j], w);
    const double a = dot(w, basis[j]);
    alpha.push_back(a);
    axpy(-a, basis[j], w);
    if (j > 0) {
      axpy(-beta[j - 1], basis[j - 1], w);
    }
    // Full reorthogonalisation: cheap at the scale we use and removes the
    // classic Lanczos ghost-eigenvalue problem.
    orthogonalize_against(w, deflate);
    orthogonalize_against(w, basis);
    const double b = norm2(w);
    if (b < 1e-12 || j + 1 == steps) {
      break;
    }
    beta.push_back(b);
    std::vector<double> next = w;
    scale(next, 1.0 / b);
    basis.push_back(std::move(next));
  }

  const std::size_t k = alpha.size();
  Matrix tridiagonal(k, k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    tridiagonal.at(i, i) = alpha[i];
    if (i + 1 < k) {
      tridiagonal.at(i, i + 1) = beta[i];
      tridiagonal.at(i + 1, i) = beta[i];
    }
  }
  LanczosResult result;
  result.ritz_values = jacobi_eigenvalues(tridiagonal);
  result.iterations = iterations;
  return result;
}

}  // namespace opindyn
