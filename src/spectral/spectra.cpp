#include "src/spectral/spectra.h"

#include <algorithm>
#include <cmath>

#include "src/spectral/lanczos.h"
#include "src/support/assert.h"

namespace opindyn {

Matrix lazy_walk_matrix(const Graph& graph) {
  const auto n = static_cast<std::size_t>(graph.node_count());
  Matrix p(n, n, 0.0);
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    p.at(static_cast<std::size_t>(u), static_cast<std::size_t>(u)) = 0.5;
    const double hop = 0.5 / static_cast<double>(graph.degree(u));
    for (const NodeId v : graph.neighbors(u)) {
      p.at(static_cast<std::size_t>(u), static_cast<std::size_t>(v)) = hop;
    }
  }
  return p;
}

Matrix walk_matrix(const Graph& graph) {
  const auto n = static_cast<std::size_t>(graph.node_count());
  Matrix p(n, n, 0.0);
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    const double hop = 1.0 / static_cast<double>(graph.degree(u));
    for (const NodeId v : graph.neighbors(u)) {
      p.at(static_cast<std::size_t>(u), static_cast<std::size_t>(v)) = hop;
    }
  }
  return p;
}

Matrix laplacian_matrix(const Graph& graph) {
  const auto n = static_cast<std::size_t>(graph.node_count());
  Matrix l(n, n, 0.0);
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    l.at(static_cast<std::size_t>(u), static_cast<std::size_t>(u)) =
        static_cast<double>(graph.degree(u));
    for (const NodeId v : graph.neighbors(u)) {
      l.at(static_cast<std::size_t>(u), static_cast<std::size_t>(v)) = -1.0;
    }
  }
  return l;
}

namespace {

/// S = D^{1/2} P D^{-1/2}: s_ij = 1/(2 sqrt(d_i d_j)) on edges, 1/2 on
/// the diagonal.  S and P share eigenvalues; if g is an eigenvector of S
/// then f = D^{-1/2} g is a (right) eigenvector of P.
Matrix symmetrised_lazy_walk(const Graph& graph) {
  OPINDYN_EXPECTS(graph.min_degree() >= 1,
                  "walk spectrum needs min degree >= 1");
  const auto n = static_cast<std::size_t>(graph.node_count());
  Matrix s(n, n, 0.0);
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    s.at(static_cast<std::size_t>(u), static_cast<std::size_t>(u)) = 0.5;
    for (const NodeId v : graph.neighbors(u)) {
      s.at(static_cast<std::size_t>(u), static_cast<std::size_t>(v)) =
          0.5 / std::sqrt(static_cast<double>(graph.degree(u)) *
                          static_cast<double>(graph.degree(v)));
    }
  }
  return s;
}

WalkEigenvalues walk_eigenvalues_from(std::vector<double> values) {
  const std::size_t n = values.size();
  const double lambda2 = n >= 2 ? values[n - 2] : 1.0;
  return {std::move(values), lambda2, 1.0 - lambda2};
}

LaplacianEigenvalues laplacian_eigenvalues_from(std::vector<double> values) {
  const double lambda2 = values.size() >= 2 ? values[1] : 0.0;
  return {std::move(values), lambda2};
}

}  // namespace

WalkSpectrum lazy_walk_spectrum(const Graph& graph) {
  const auto n = static_cast<std::size_t>(graph.node_count());
  EigenDecomposition eig = jacobi_eigen(symmetrised_lazy_walk(graph));
  OPINDYN_ENSURES(eig.values.size() == n, "spectrum size mismatch");

  // Map g -> f = D^{-1/2} g and normalise under <.,.>_pi so that the
  // lower-bound experiments can use ||f_2||_pi = 1 directly.
  std::vector<double> f2(n, 0.0);
  if (n >= 2) {
    const auto& g = eig.vectors[n - 2];
    for (std::size_t u = 0; u < n; ++u) {
      f2[u] = g[u] / std::sqrt(static_cast<double>(
                         graph.degree(static_cast<NodeId>(u))));
    }
    double pi_norm2 = 0.0;
    for (std::size_t u = 0; u < n; ++u) {
      pi_norm2 += graph.stationary(static_cast<NodeId>(u)) * f2[u] * f2[u];
    }
    if (pi_norm2 > 0.0) {
      scale(f2, 1.0 / std::sqrt(pi_norm2));
    }
  }
  return {walk_eigenvalues_from(std::move(eig.values)), std::move(f2)};
}

WalkEigenvalues lazy_walk_eigenvalues(const Graph& graph) {
  return walk_eigenvalues_from(
      jacobi_eigenvalues(symmetrised_lazy_walk(graph)));
}

LaplacianSpectrum laplacian_spectrum(const Graph& graph) {
  EigenDecomposition eig = jacobi_eigen(laplacian_matrix(graph));
  std::vector<double> f2 = eig.vectors.size() >= 2
                               ? std::move(eig.vectors[1])
                               : std::vector<double>{};
  return {laplacian_eigenvalues_from(std::move(eig.values)), std::move(f2)};
}

LaplacianEigenvalues laplacian_eigenvalues(const Graph& graph) {
  return laplacian_eigenvalues_from(
      jacobi_eigenvalues(laplacian_matrix(graph)));
}

double laplacian_lambda2_lanczos(const Graph& graph, std::size_t steps,
                                 std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(graph.node_count());
  OPINDYN_EXPECTS(n >= 2, "lambda2 needs n >= 2");
  const SymmetricOperator apply_l = [&graph](const std::vector<double>& x,
                                             std::vector<double>& y) {
    y.assign(x.size(), 0.0);
    for (NodeId u = 0; u < graph.node_count(); ++u) {
      double sum = static_cast<double>(graph.degree(u)) *
                   x[static_cast<std::size_t>(u)];
      for (const NodeId v : graph.neighbors(u)) {
        sum -= x[static_cast<std::size_t>(v)];
      }
      y[static_cast<std::size_t>(u)] = sum;
    }
  };
  // Deflate the kernel (all-ones) so the smallest surviving Ritz value
  // approximates lambda_2.
  std::vector<double> ones(n, 1.0 / std::sqrt(static_cast<double>(n)));
  Rng rng(seed);
  const LanczosResult result = lanczos(apply_l, n, steps, rng, {ones});
  OPINDYN_ENSURES(!result.ritz_values.empty(), "lanczos produced no values");
  return result.ritz_values.front();
}

}  // namespace opindyn
