#include "src/core/hegselmann_krause_model.h"

#include <algorithm>
#include <cmath>

#include "src/core/burst_kernels.h"
#include "src/core/node_topology.h"
#include "src/support/assert.h"

namespace opindyn {
namespace {

/// The HK burst kernel on the kernel-v2 chunked skeleton
/// (burst_kernels.h).  One step consumes [coin,] next_below(n) -- no
/// per-neighbour draws -- so non-lazy chunks batch their node draws
/// through Rng::fill_below (stream-identical to sequential next_below
/// by its contract) and then apply sequentially.  The confidant scan
/// and the mean arithmetic mirror apply_update term for term, and a
/// step with no confidant skips the write exactly like the recorded
/// path's no-op selection, so state and rng stream are bit-identical
/// to n_steps repeated step() calls.  The recompute cadence is
/// accounted per update (advance_one): HK's update count is
/// data-dependent, so there is no fixed per-chunk count to settle in
/// bulk -- the O(deg) confidant scan dominates the decrement anyway.
template <class Topo>
void run_hk_burst(Rng& rng, std::int64_t n_steps, bool lazy,
                  double confidence, OpinionState& state, double* vals,
                  NodeId n, const Topo& topo) {
  const auto nn = static_cast<std::uint64_t>(n);
  auto cursor = state.begin_burst();
  const double uniform_pi = topo.stationary(0);
  const NodeId* adj = topo.adjacency();
  const auto apply_node = [&](NodeId u) {
    const std::int64_t base = topo.row_base(u);
    const std::int32_t d = topo.degree(u);
    const double xu = vals[static_cast<std::size_t>(u)];
    double sum = xu;
    std::int32_t confidants = 0;
    for (std::int32_t i = 0; i < d; ++i) {
      const double xv = vals[static_cast<std::size_t>(
          adj[static_cast<std::size_t>(base + i)])];
      if (std::abs(xv - xu) <= confidence) {
        sum += xv;
        ++confidants;
      }
    }
    if (confidants == 0) {
      return;  // no-op step, exactly like the empty recorded selection
    }
    const double x = sum / (1.0 + static_cast<double>(confidants));
    cursor.update(Topo::kUniformPi ? uniform_pi : topo.stationary(u), xu, x);
    vals[static_cast<std::size_t>(u)] = x;
    if (cursor.advance_one()) {
      state.recompute();
      cursor = state.begin_burst();
    }
  };
  std::uint64_t raw[burst::kChunkSteps];
  std::int64_t done = 0;
  while (done < n_steps) {
    const auto chunk = static_cast<std::size_t>(
        std::min<std::int64_t>(burst::kChunkSteps, n_steps - done));
    if (!lazy) {
      rng.fill_below(nn, raw, chunk);
      for (std::size_t c = 0; c < chunk; ++c) {
        apply_node(static_cast<NodeId>(raw[c]));
      }
    } else {
      for (std::size_t c = 0; c < chunk; ++c) {
        if (rng.next_bool(0.5)) {
          continue;  // lazy no-op: consumes the coin, still counts a step
        }
        apply_node(static_cast<NodeId>(rng.next_below_nonzero(nn)));
      }
    }
    done += static_cast<std::int64_t>(chunk);
  }
  state.end_burst(cursor);
}

}  // namespace

HegselmannKrauseModel::HegselmannKrauseModel(const Graph& graph,
                                             std::vector<double> initial,
                                             double confidence, bool lazy)
    : AveragingProcess(graph, std::move(initial), /*alpha=*/0.0),
      confidence_(confidence),
      lazy_(lazy) {
  OPINDYN_EXPECTS(confidence > 0.0, "hegselmann_krause needs confidence > 0");
}

void HegselmannKrauseModel::apply_update(const NodeSelection& selection) {
  if (selection.is_noop()) {
    return;
  }
  const NodeId u = selection.node;
  const double xu = state().value(u);
  double sum = xu;
  for (const NodeId v : selection.sample) {
    OPINDYN_EXPECTS(state().graph().has_edge(u, v),
                    "selection sample contains a non-neighbour");
    sum += state().value(v);
  }
  const double x =
      sum / (1.0 + static_cast<double>(selection.sample.size()));
  mutable_state().set_value(u, x);
}

NodeSelection HegselmannKrauseModel::step_recorded(Rng& rng) {
  NodeSelection selection;
  if (lazy_ && rng.next_bool(0.5)) {
    apply(selection);  // records a no-op time step
    return selection;
  }
  const Graph& g = graph();
  const auto u = static_cast<NodeId>(
      rng.next_below(static_cast<std::uint64_t>(g.node_count())));
  const double xu = state().value(u);
  selection.node = u;
  for (const NodeId v : g.neighbors(u)) {
    if (std::abs(state().value(v) - xu) <= confidence_) {
      selection.sample.push_back(v);
    }
  }
  apply(selection);  // empty confidant set records a natural no-op
  return selection;
}

void HegselmannKrauseModel::step_burst(Rng& rng, std::int64_t n_steps) {
  OPINDYN_EXPECTS(n_steps >= 0, "n_steps must be >= 0");
  const Graph& g = graph();
  OpinionState& state = mutable_state();
  const NodeId n = g.node_count();
  if (g.is_regular()) {
    NodeRegularTopo topo{g.adjacency_data(), g.min_degree(),
                         g.stationary(0)};
    run_hk_burst(rng, n_steps, lazy_, confidence_, state,
                 state.mutable_values(), n, topo);
  } else {
    NodeIrregularTopo topo{g.offsets_data(), g.adjacency_data(),
                           state.stationary_data()};
    run_hk_burst(rng, n_steps, lazy_, confidence_, state,
                 state.mutable_values(), n, topo);
  }
  advance_time(n_steps);
}

}  // namespace opindyn
