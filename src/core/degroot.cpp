#include "src/core/degroot.h"

#include <utility>

#include "src/support/assert.h"

namespace opindyn {

DeGrootModel::DeGrootModel(const Graph& graph, std::vector<double> initial,
                           bool lazy)
    : AveragingProcess(graph, std::move(initial), /*alpha=*/0.0),
      lazy_(lazy) {
  OPINDYN_EXPECTS(graph.min_degree() >= 1,
                  "DeGroot needs every node to have a neighbour");
  scratch_.resize(static_cast<std::size_t>(graph.node_count()));
}

NodeSelection DeGrootModel::step_recorded(Rng& rng) {
  step_burst(rng, 1);
  return {};
}

void DeGrootModel::step_burst(Rng& /*rng*/, std::int64_t n_steps) {
  OPINDYN_EXPECTS(n_steps >= 0, "n_steps must be >= 0");
  const Graph& g = graph();
  OpinionState& s = mutable_state();
  const std::vector<double>& values = s.values();
  for (std::int64_t i = 0; i < n_steps; ++i) {
    for (NodeId u = 0; u < g.node_count(); ++u) {
      double sum = 0.0;
      for (const NodeId v : g.neighbors(u)) {
        sum += values[static_cast<std::size_t>(v)];
      }
      const double mean = sum / static_cast<double>(g.degree(u));
      scratch_[static_cast<std::size_t>(u)] =
          lazy_ ? 0.5 * values[static_cast<std::size_t>(u)] + 0.5 * mean
                : mean;
    }
    for (NodeId u = 0; u < g.node_count(); ++u) {
      s.set_value(u, scratch_[static_cast<std::size_t>(u)]);
    }
  }
  advance_time(n_steps);
}

bool DeGrootModel::converged(double epsilon,
                             bool /*use_plain_potential*/) const {
  return state().discrepancy() <= epsilon;
}

}  // namespace opindyn
