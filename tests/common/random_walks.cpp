#include "tests/common/random_walks.h"

#include <numeric>

#include "src/support/assert.h"

namespace opindyn {

CorrelatedWalks::CorrelatedWalks(const Graph& graph, double alpha)
    : graph_(&graph), alpha_(alpha),
      positions_(static_cast<std::size_t>(graph.node_count())) {
  OPINDYN_EXPECTS(alpha >= 0.0 && alpha < 1.0, "alpha must be in [0, 1)");
  std::iota(positions_.begin(), positions_.end(), 0);
}

CorrelatedWalks::CorrelatedWalks(const Graph& graph, double alpha,
                                 std::vector<NodeId> start_positions)
    : graph_(&graph), alpha_(alpha), positions_(std::move(start_positions)) {
  OPINDYN_EXPECTS(alpha >= 0.0 && alpha < 1.0, "alpha must be in [0, 1)");
  OPINDYN_EXPECTS(!positions_.empty(), "need at least one walk");
  for (const NodeId p : positions_) {
    OPINDYN_EXPECTS(p >= 0 && p < graph.node_count(),
                    "start position out of range");
  }
}

void CorrelatedWalks::apply(const NodeSelection& selection, Rng& rng) {
  ++time_;
  if (selection.is_noop()) {
    return;
  }
  const NodeId u = selection.node;
  const auto k = static_cast<std::uint64_t>(selection.sample.size());
  for (NodeId& pos : positions_) {
    if (pos != u) {
      continue;
    }
    // Stay with probability alpha (the walk's share of B's diagonal);
    // otherwise jump to a uniform member of the shared sample.  Each
    // walk draws independently -- the correlation comes solely from the
    // shared (u, S).
    if (!rng.next_bool(alpha_)) {
      pos = selection.sample[static_cast<std::size_t>(rng.next_below(k))];
    }
  }
}

NodeId CorrelatedWalks::position(std::size_t walk) const {
  OPINDYN_EXPECTS(walk < positions_.size(), "walk index out of range");
  return positions_[walk];
}

double CorrelatedWalks::cost(std::size_t walk,
                             const std::vector<double>& xi0) const {
  const NodeId pos = position(walk);
  OPINDYN_EXPECTS(xi0.size() == static_cast<std::size_t>(graph_->node_count()),
                  "cost vector size must equal node count");
  return xi0[static_cast<std::size_t>(pos)];
}

}  // namespace opindyn
