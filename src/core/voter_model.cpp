#include "src/core/voter_model.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/support/assert.h"

namespace opindyn {
namespace {

std::vector<double> to_values(const std::vector<int>& opinions) {
  std::vector<double> values(opinions.size());
  std::transform(opinions.begin(), opinions.end(), values.begin(),
                 [](int o) { return static_cast<double>(o); });
  return values;
}

}  // namespace

VoterModel::VoterModel(const Graph& graph, std::vector<double> opinions,
                       bool lazy)
    : AveragingProcess(graph, std::move(opinions), /*alpha=*/0.0),
      lazy_(lazy) {
  // Dense-id the opinions so consensus detection is O(1) per step.
  const std::vector<double>& values = state().values();
  std::map<double, int> dense;
  opinion_ids_.resize(values.size());
  for (std::size_t u = 0; u < values.size(); ++u) {
    const auto [it, inserted] =
        dense.emplace(values[u], static_cast<int>(dense.size()));
    opinion_ids_[u] = it->second;
    (void)inserted;
  }
  counts_.assign(dense.size(), 0);
  for (const int id : opinion_ids_) {
    ++counts_[static_cast<std::size_t>(id)];
  }
  distinct_opinions_ = static_cast<int>(
      std::count_if(counts_.begin(), counts_.end(),
                    [](std::int64_t c) { return c > 0; }));
}

VoterModel::VoterModel(const Graph& graph, const std::vector<int>& opinions,
                       bool lazy)
    : VoterModel(graph, to_values(opinions), lazy) {}

void VoterModel::copy_opinion(NodeId u, NodeId v) {
  const auto ui = static_cast<std::size_t>(u);
  const auto vi = static_cast<std::size_t>(v);
  if (opinion_ids_[ui] == opinion_ids_[vi]) {
    return;
  }
  const auto old_id = static_cast<std::size_t>(opinion_ids_[ui]);
  const auto new_id = static_cast<std::size_t>(opinion_ids_[vi]);
  if (--counts_[old_id] == 0) {
    --distinct_opinions_;
  }
  ++counts_[new_id];
  opinion_ids_[ui] = opinion_ids_[vi];
  mutable_state().set_value(u, state().value(v));
}

void VoterModel::apply_update(const NodeSelection& selection) {
  if (selection.is_noop()) {
    return;
  }
  OPINDYN_EXPECTS(selection.sample.size() == 1,
                  "voter selection must sample exactly one neighbour");
  const NodeId v = selection.sample.front();
  OPINDYN_EXPECTS(state().graph().has_edge(selection.node, v),
                  "selection sample contains a non-neighbour");
  copy_opinion(selection.node, v);
}

NodeSelection VoterModel::step_recorded(Rng& rng) {
  NodeSelection selection;
  if (lazy_ && rng.next_bool(0.5)) {
    apply(selection);  // records a no-op time step
    return selection;
  }
  const Graph& g = graph();
  const auto u = static_cast<NodeId>(
      rng.next_below(static_cast<std::uint64_t>(g.node_count())));
  const auto row = g.neighbors(u);
  const NodeId v = row[static_cast<std::size_t>(
      rng.next_below(static_cast<std::uint64_t>(row.size())))];
  selection.node = u;
  selection.sample.assign(1, v);
  apply(selection);
  return selection;
}

void VoterModel::step_burst(Rng& rng, std::int64_t n_steps) {
  OPINDYN_EXPECTS(n_steps >= 0, "n_steps must be >= 0");
  // Allocation-free loop with the exact step() draw order: [coin,]
  // next_below(n), next_below(deg(u)).  The update is a value copy, so
  // bit-identity with repeated step() is by construction.
  const Graph& g = graph();
  const auto n = static_cast<std::uint64_t>(g.node_count());
  for (std::int64_t s = 0; s < n_steps; ++s) {
    if (lazy_ && rng.next_bool(0.5)) {
      continue;  // lazy no-op: consumes the coin, still counts a step
    }
    const auto u = static_cast<NodeId>(rng.next_below(n));
    const auto row = g.neighbors(u);
    const NodeId v = row[static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(row.size())))];
    copy_opinion(u, v);
  }
  advance_time(n_steps);
}

bool VoterModel::converged(double /*epsilon*/,
                           bool /*use_plain_potential*/) const {
  return has_consensus();
}

}  // namespace opindyn
