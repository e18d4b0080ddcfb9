// The Q-chain of Section 5.3: the joint Markov chain of two correlated
// random walks driven by the shared B(t) matrices.  States are ordered
// pairs (x, y) in V x V; transitions follow Eqs. (14)-(21).  The chain is
// irreducible and aperiodic but NOT reversible (a pair can move from
// distance 0 to distance 2 in one step, never back in one step), so its
// stationary distribution cannot come from detailed balance -- Lemma 5.7
// instead gives it in closed form for d-regular graphs: it takes exactly
// three values mu_0 / mu_1 / mu_+ indexed by the distance class
// (Definition 5.6) of the pair.
//
// This module builds the exact dense transition matrix from the walk
// semantics (so it is independently testable against the closed form) and
// provides both the closed-form and the power-iteration stationary
// distributions.
#ifndef OPINDYN_CORE_QCHAIN_H
#define OPINDYN_CORE_QCHAIN_H

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/spectral/matrix.h"
#include "src/spectral/power_iteration.h"

namespace opindyn {

/// The three stationary values of Lemma 5.7 plus its auxiliary constants.
/// Valid for d-regular graphs with d >= 2, 1 <= k <= d, alpha in (0, 1).
struct QStationaryValues {
  double mu0 = 0.0;      ///< pairs at distance 0 (both walks together)
  double mu1 = 0.0;      ///< pairs at distance 1 (adjacent)
  double mu_plus = 0.0;  ///< pairs at distance >= 2
  double gamma = 0.0;    ///< k(1+alpha) - (1-alpha)
  double ell = 0.0;      ///< the normalising factor of Lemma 5.7
};

/// Lemma 5.7 closed form.
QStationaryValues q_stationary_closed_form(std::int64_t n, std::int64_t d,
                                           std::int64_t k, double alpha);

class QChain {
 public:
  /// Builds the exact n^2 x n^2 transition matrix.  Works for any
  /// connected graph with k <= min_degree (the closed form additionally
  /// requires regularity).  Memory is O(n^4); intended for n <= ~40.
  QChain(const Graph& graph, double alpha, std::int64_t k);

  const Graph& graph() const noexcept { return *graph_; }
  double alpha() const noexcept { return alpha_; }
  std::int64_t k() const noexcept { return k_; }

  /// Row/column index of pair state (x, y).
  std::size_t state_index(NodeId x, NodeId y) const;

  const Matrix& transition() const noexcept { return q_; }

  /// Stationary distribution over pair states per Lemma 5.7 (requires a
  /// regular graph with degree >= 2); indexed by state_index.
  std::vector<double> closed_form_stationary() const;

  /// max_s |(mu Q)_s - mu_s| for the closed-form mu: the direct numerical
  /// verification of Lemma 5.7 (should be ~1e-15).
  double closed_form_residual() const;

  /// Stationary distribution by left power iteration (works for any
  /// graph, including irregular ones where no closed form is known --
  /// the paper's Section 6 open problem).
  StationaryResult numerical_stationary(double tolerance = 1e-14,
                                        int max_iterations = 2000000) const;

  /// Predicted asymptotic second moment E[W~(a) W~(b)] of Lemma 5.5:
  /// sum_{u,v} mu(u,v) xi_u xi_v for a given stationary vector.  With
  /// closed_form_stationary() and Avg(xi0) = 0 it is Prop. 5.8's
  /// theory::variance_exact, since (sum_u xi_u)^2 = 0 cancels mu+.
  double second_moment(const std::vector<double>& stationary,
                       const std::vector<double>& xi0) const;

 private:
  const Graph* graph_;
  double alpha_;
  std::int64_t k_;
  Matrix q_;
};

}  // namespace opindyn

#endif  // OPINDYN_CORE_QCHAIN_H
