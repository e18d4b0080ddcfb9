#include "src/core/process.h"

#include "src/support/assert.h"

namespace opindyn {

AveragingProcess::AveragingProcess(const Graph& graph,
                                   std::vector<double> initial, double alpha)
    : state_(graph, std::move(initial)), alpha_(alpha) {
  OPINDYN_EXPECTS(alpha >= 0.0 && alpha < 1.0, "alpha must be in [0, 1)");
}

void AveragingProcess::step(Rng& rng) { (void)step_recorded(rng); }

void AveragingProcess::apply(const NodeSelection& selection) {
  apply_update(selection);
  ++time_;
}

std::int64_t AveragingProcess::step_burst_group(
    std::span<AveragingProcess* const> group, std::span<Rng* const> rngs,
    std::int64_t n_steps) {
  OPINDYN_EXPECTS(group.size() == rngs.size(), "one rng per process");
  const auto size = static_cast<std::int64_t>(group.size());
  const LaneShape shape = size > 0 ? group[0]->lane_shape() : LaneShape{};
  bool lockstep = size >= lanes::kMinLanes && size <= lanes::kMaxLanes &&
                  shape.rule != LaneShape::Rule::none && lanes::enabled();
  for (const AveragingProcess* process : group) {
    lockstep = lockstep && process->lane_shape() == shape &&
               &process->graph() == &group[0]->graph();
  }
  if (!lockstep) {
    for (std::size_t i = 0; i < group.size(); ++i) {
      group[i]->step_burst(*rngs[i], n_steps);
    }
    return 0;
  }
  lanes::Lane lane[lanes::kMaxLanes];
  for (std::size_t i = 0; i < group.size(); ++i) {
    lane[i] = {&group[i]->state_, rngs[i]};
  }
  lanes::step(shape, {lane, group.size()}, n_steps);
  for (AveragingProcess* process : group) {
    process->advance_time(n_steps);
  }
  return n_steps * size;
}

bool AveragingProcess::converged(double epsilon,
                                 bool use_plain_potential) const {
  // The O(1) screen settles every check it can prove is above eps; only
  // the rest pay the O(n) exact pass.  The screen never says "below",
  // so the decision -- and with it every output byte -- is the exact
  // pass's.
  if (state_.phi_certainly_above(epsilon, use_plain_potential)) {
    return false;
  }
  ++exact_checks_;
  const double phi =
      use_plain_potential ? state_.phi_plain_exact() : state_.phi_exact();
  return phi <= epsilon;
}

void AveragingProcess::apply_update(const NodeSelection& selection) {
  if (selection.is_noop()) {
    return;
  }
  const NodeId u = selection.node;
  double neighbour_sum = 0.0;
  for (const NodeId v : selection.sample) {
    OPINDYN_EXPECTS(state_.graph().has_edge(u, v),
                    "selection sample contains a non-neighbour");
    neighbour_sum += state_.value(v);
  }
  const double neighbour_mean =
      neighbour_sum / static_cast<double>(selection.sample.size());
  state_.set_value(u,
                   alpha_ * state_.value(u) + (1.0 - alpha_) * neighbour_mean);
}

}  // namespace opindyn
