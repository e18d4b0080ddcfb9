#include "src/core/gossip_model.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/service/cancel_token.h"
#include "src/support/assert.h"

namespace opindyn {

GossipModel::GossipModel(const Graph& graph, std::vector<double> initial,
                         bool lazy)
    : AveragingProcess(graph, std::move(initial), /*alpha=*/0.5,
                       /*track_extrema=*/false),
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

GossipRunResult run_gossip_to_convergence(const Graph& graph,
                                          const std::vector<double>& initial,
                                          Rng& rng, double epsilon,
                                          std::int64_t max_steps) {
  OPINDYN_EXPECTS(epsilon > 0.0, "epsilon must be positive");
  GossipModel gossip(graph, initial);
  const double initial_average = gossip.state().average();
  GossipRunResult result;
  const std::int64_t interval =
      std::max<std::int64_t>(1, graph.node_count() / 4);
  while (gossip.time() < max_steps) {
    // Cancellation lands between bursts, as in run_until_converged.
    cancel::poll();
    const std::int64_t burst = std::min(interval, max_steps - gossip.time());
    gossip.step_burst(rng, burst);
    // The certified O(1) screen first; the exact pass decides the rest.
    if (gossip.converged(epsilon, /*use_plain_potential=*/true)) {
      result.converged = true;
      break;
    }
  }
  result.steps = gossip.time();
  result.final_value = gossip.state().average();
  result.average_drift = std::abs(result.final_value - initial_average);
  return result;
}

}  // namespace opindyn
