// Spectral quantities of the paper (Section 4):
//
//  * P -- the *lazy* random-walk transition matrix, p(i,i) = 1/2 and
//    p(i,j) = 1/(2 d_i) for edges {i,j}.  Theorem 2.2's rate is
//    1 - lambda_2(P).  P is reversible w.r.t. pi = d/2m, so
//    S = D^{1/2} P D^{-1/2} is symmetric and shares P's spectrum; we
//    decompose S with Jacobi and map eigenvectors back.
//  * L = D - A -- the graph Laplacian.  Theorem 2.4's rate is lambda_2(L).
//
// For d-regular graphs the two are linked: 1 - lambda_2(P) =
// lambda_2(L) / (2d) (the factor-d remark after Theorem 2.4).
#ifndef OPINDYN_SPECTRAL_SPECTRA_H
#define OPINDYN_SPECTRAL_SPECTRA_H

#include <vector>

#include "src/graph/graph.h"
#include "src/spectral/jacobi.h"
#include "src/spectral/matrix.h"

namespace opindyn {

/// Dense lazy random-walk matrix P (row-stochastic).
Matrix lazy_walk_matrix(const Graph& graph);

/// Dense non-lazy random-walk matrix (row-stochastic); spectrum in [-1,1].
Matrix walk_matrix(const Graph& graph);

/// Dense Laplacian L = D - A.
Matrix laplacian_matrix(const Graph& graph);

/// The eigenvalue part of the lazy-walk spectrum: what the rates of
/// Thm. 2.2 and Prop. B.1 read.
struct WalkEigenvalues {
  /// Eigenvalues of the lazy P, ascending; last is exactly 1.
  std::vector<double> values;
  /// Second-largest eigenvalue lambda_2(P).
  double lambda2;
  /// Spectral gap 1 - lambda_2(P).
  double gap;
};

struct WalkSpectrum : WalkEigenvalues {
  /// Right eigenvector f_2 of P for lambda_2, normalised under the
  /// pi-weighted inner product <f,f>_pi = 1.
  std::vector<double> f2;
};

/// Full spectrum of the lazy walk matrix via symmetrization + Jacobi.
WalkSpectrum lazy_walk_spectrum(const Graph& graph);

/// The eigenvalues of lazy_walk_spectrum(graph), bit for bit, from an
/// eigenvalues-only Jacobi solve (no eigenvectors).
WalkEigenvalues lazy_walk_eigenvalues(const Graph& graph);

/// The eigenvalue part of the Laplacian spectrum (Thm. 2.4's rate).
struct LaplacianEigenvalues {
  /// Eigenvalues of L ascending; first is exactly 0.
  std::vector<double> values;
  /// Second-smallest eigenvalue lambda_2(L) (algebraic connectivity).
  double lambda2;
};

struct LaplacianSpectrum : LaplacianEigenvalues {
  /// Unit eigenvector f_2(L).
  std::vector<double> f2;
};

/// Full Laplacian spectrum via Jacobi.
LaplacianSpectrum laplacian_spectrum(const Graph& graph);

/// The eigenvalues of laplacian_spectrum(graph), bit for bit, from an
/// eigenvalues-only Jacobi solve.
LaplacianEigenvalues laplacian_eigenvalues(const Graph& graph);

/// lambda_2(L) for large graphs via Lanczos with the all-ones vector
/// deflated; `accuracy_steps` Krylov steps (>= 50 recommended).
double laplacian_lambda2_lanczos(const Graph& graph, std::size_t steps,
                                 std::uint64_t seed = 12345);

}  // namespace opindyn

#endif  // OPINDYN_SPECTRAL_SPECTRA_H
