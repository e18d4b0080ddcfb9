#include "src/core/friedkin_johnsen.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/spectral/solve.h"
#include "src/spectral/spectra.h"
#include "src/support/assert.h"

namespace opindyn {

FriedkinJohnsenModel::FriedkinJohnsenModel(
    const Graph& graph, std::vector<double> private_opinions,
    double susceptibility)
    : AveragingProcess(graph, private_opinions, susceptibility),
      private_(std::move(private_opinions)) {
  OPINDYN_EXPECTS(graph.min_degree() >= 1,
                  "FJ needs every node to have a neighbour");
  scratch_.resize(private_.size());
}

NodeSelection FriedkinJohnsenModel::step_recorded(Rng& rng) {
  step_burst(rng, 1);
  return {};
}

void FriedkinJohnsenModel::step_burst(Rng& /*rng*/, std::int64_t n_steps) {
  OPINDYN_EXPECTS(n_steps >= 0, "n_steps must be >= 0");
  const Graph& g = graph();
  const double lambda = alpha();
  OpinionState& s = mutable_state();
  const std::vector<double>& expressed = s.values();
  for (std::int64_t i = 0; i < n_steps; ++i) {
    for (NodeId u = 0; u < g.node_count(); ++u) {
      double sum = 0.0;
      for (const NodeId v : g.neighbors(u)) {
        sum += expressed[static_cast<std::size_t>(v)];
      }
      const double social = sum / static_cast<double>(g.degree(u));
      scratch_[static_cast<std::size_t>(u)] =
          lambda * social +
          (1.0 - lambda) * private_[static_cast<std::size_t>(u)];
    }
    for (NodeId u = 0; u < g.node_count(); ++u) {
      s.set_value(u, scratch_[static_cast<std::size_t>(u)]);
    }
  }
  advance_time(n_steps);
}

bool FriedkinJohnsenModel::converged(double epsilon,
                                     bool /*use_plain_potential*/) const {
  return distance_to_equilibrium() <= epsilon;
}

const std::vector<double>& FriedkinJohnsenModel::equilibrium() const {
  if (!equilibrium_.empty()) {
    return equilibrium_;
  }
  const auto n = static_cast<std::size_t>(graph().node_count());
  const double lambda = alpha();
  // A = I - lambda W; b = (1 - lambda) s.
  Matrix a = walk_matrix(graph());
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      a.at(r, c) = (r == c ? 1.0 : 0.0) - lambda * a.at(r, c);
    }
  }
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = (1.0 - lambda) * private_[i];
  }
  equilibrium_ = solve_dense(std::move(a), std::move(b));
  return equilibrium_;
}

double FriedkinJohnsenModel::distance_to_equilibrium() const {
  const std::vector<double>& expressed = state().values();
  const std::vector<double>& star = equilibrium();
  double dist = 0.0;
  for (std::size_t i = 0; i < star.size(); ++i) {
    dist = std::max(dist, std::abs(expressed[i] - star[i]));
  }
  return dist;
}

}  // namespace opindyn
