#include "src/core/gossip_model.h"

#include <utility>

#include "src/support/assert.h"

namespace opindyn {

GossipModel::GossipModel(const Graph& graph, std::vector<double> initial,
                         bool lazy)
    : AveragingProcess(graph, std::move(initial), /*alpha=*/0.5),
      lazy_(lazy) {
  OPINDYN_EXPECTS(graph.edge_count() >= 1, "gossip needs >= 1 edge");
}

void GossipModel::apply_update(const NodeSelection& selection) {
  if (selection.is_noop()) {
    return;
  }
  OPINDYN_EXPECTS(selection.sample.size() == 1,
                  "gossip selection must name exactly one partner");
  const NodeId u = selection.node;
  const NodeId v = selection.sample.front();
  OPINDYN_EXPECTS(state().graph().has_edge(u, v),
                  "selection sample contains a non-neighbour");
  OpinionState& s = mutable_state();
  const double mean = 0.5 * (s.value(u) + s.value(v));
  s.set_value(u, mean);
  s.set_value(v, mean);
}

NodeSelection GossipModel::step_recorded(Rng& rng) {
  NodeSelection selection;
  if (lazy_ && rng.next_bool(0.5)) {
    apply(selection);  // records a no-op time step
    return selection;
  }
  const Graph& g = graph();
  const auto arc = static_cast<ArcId>(
      rng.next_below(static_cast<std::uint64_t>(g.arc_count())));
  selection.node = g.arc_source(arc);
  selection.sample.assign(1, g.arc_target(arc));
  apply(selection);
  return selection;
}

void GossipModel::step_burst(Rng& rng, std::int64_t n_steps) {
  OPINDYN_EXPECTS(n_steps >= 0, "n_steps must be >= 0");
  // Allocation-free loop with the exact step() draw order: [coin,]
  // next_below(arc_count).  The two set_value calls run the identical
  // arithmetic as apply_update, so the burst is bit-identical to
  // n_steps repeated step() calls.
  const Graph& g = graph();
  OpinionState& s = mutable_state();
  const auto arcs = static_cast<std::uint64_t>(g.arc_count());
  for (std::int64_t i = 0; i < n_steps; ++i) {
    if (lazy_ && rng.next_bool(0.5)) {
      continue;  // lazy no-op: consumes the coin, still counts a step
    }
    const auto arc = static_cast<ArcId>(rng.next_below(arcs));
    const NodeId u = g.arc_source(arc);
    const NodeId v = g.arc_target(arc);
    const double mean = 0.5 * (s.value(u) + s.value(v));
    s.set_value(u, mean);
    s.set_value(v, mean);
  }
  advance_time(n_steps);
}

}  // namespace opindyn
