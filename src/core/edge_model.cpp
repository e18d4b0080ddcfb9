#include "src/core/edge_model.h"

#include <algorithm>
#include <bit>

#include "src/core/burst_kernels.h"
#include "src/support/assert.h"

namespace opindyn {
namespace {

// Arc-resolution policies: how a kernel instantiation turns a drawn
// arc index into its updating node, neighbour node and stationary
// weight.  All calls inline into the burst loop.

/// Regular graph with power-of-two degree: arc -> source is a shift
/// (arcs are emitted row by row, d per node) and pi = d / 2m is one
/// constant, so the only memory the resolution touches is the
/// adjacency array.
struct EdgeRegularPow2Topo {
  static constexpr bool kUniformPi = true;
  const NodeId* adj;
  int shift;
  double pi;
  double uniform_pi() const noexcept { return pi; }
  NodeId source(std::int32_t p) const noexcept { return p >> shift; }
  NodeId target(std::int32_t p) const noexcept {
    return adj[static_cast<std::size_t>(p)];
  }
  double pi_of(NodeId) const noexcept { return pi; }
};

/// General graph: arc source/target arrays + per-node pi.
struct EdgeGeneralTopo {
  static constexpr bool kUniformPi = false;
  const NodeId* adj;
  const NodeId* src;
  const double* pi;
  double uniform_pi() const noexcept { return 0.0; }  // unused
  NodeId source(std::int32_t p) const noexcept {
    return src[static_cast<std::size_t>(p)];
  }
  NodeId target(std::int32_t p) const noexcept {
    return adj[static_cast<std::size_t>(p)];
  }
  double pi_of(NodeId u) const noexcept {
    return pi[static_cast<std::size_t>(u)];
  }
};

/// The burst kernel.  Consumes the rng in EXACT step() order and
/// performs set_value's arithmetic through a register-resident cursor,
/// so the result is bit-identical to n_steps repeated step() calls.
/// One fused loop per step (draw, resolve the arc inline, apply -- no
/// intermediate buffers), software-pipelined in groups of 8 draws.
/// Neighbour values are read live (exact sequential semantics).
/// Recompute cadence is counted per chunk via the cursor countdown,
/// exactly as in the node kernel.
template <class Topo>
void run_edge_burst(Rng& rng, std::int64_t n_steps, bool lazy, double a,
                    OpinionState& state, double* vals, std::uint64_t arcs,
                    const Topo& topo) {
  const double one_minus_a = 1.0 - a;
  auto cursor = state.begin_burst();
  const double uniform_pi = topo.uniform_pi();
  const auto recompute_now = [&] {
    state.recompute();
    cursor = state.begin_burst();
  };
  const auto apply_arc = [&](std::int32_t p) {
    const std::int32_t u = topo.source(p);
    const std::int32_t v = topo.target(p);
    const double old = vals[static_cast<std::size_t>(u)];
    const double nv = vals[static_cast<std::size_t>(v)];
    // apply_update computes (0.0 + value(v)) / 1.0; the division by
    // one is exact, the leading add is kept for the -0.0 case.
    const double x = a * old + one_minus_a * (0.0 + nv);
    cursor.update(Topo::kUniformPi ? uniform_pi : topo.pi_of(u), old, x);
    vals[static_cast<std::size_t>(u)] = x;
  };
  const auto one_step = [&] {
    apply_arc(static_cast<std::int32_t>(rng.next_below_nonzero(arcs)));
  };
  std::int64_t done = 0;
  while (done < n_steps) {
    const std::int64_t chunk =
        std::min<std::int64_t>(burst::kChunkSteps, n_steps - done);
    if (!lazy && cursor.countdown() > chunk) [[likely]] {
      // Software-pipelined 8-wide: each group's draws are hoisted
      // ahead of its applies, decoupling the serial rng chain from the
      // load->fp->store chains so their latencies overlap.  Legal
      // because draws depend on no value, and each apply still reads
      // its neighbours live, in step order.
      // 8 measured best on a wide OoO core (4 leaves latency unhidden,
      // 16 spills the group to the stack).
      std::int64_t c = 0;
      for (; c + 8 <= chunk; c += 8) {
        std::int32_t ps[8];
        for (int i = 0; i < 8; ++i) {
          ps[i] = static_cast<std::int32_t>(rng.next_below_nonzero(arcs));
        }
        for (int i = 0; i < 8; ++i) {
          apply_arc(ps[i]);
        }
      }
      for (; c < chunk; ++c) {
        one_step();
      }
      cursor.advance(chunk);
    } else {
      for (std::int64_t c = 0; c < chunk; ++c) {
        if (lazy && rng.next_bool(0.5)) {
          continue;  // lazy no-op: consumes the coin, still counts a step
        }
        one_step();
        if (cursor.advance_one()) {
          recompute_now();
        }
      }
    }
    done += chunk;
  }
  state.end_burst(cursor);
}

}  // namespace

EdgeModel::EdgeModel(const Graph& graph, std::vector<double> initial,
                     const EdgeModelParams& params)
    : AveragingProcess(graph, std::move(initial), params.alpha),
      params_(params) {
  OPINDYN_EXPECTS(graph.edge_count() >= 1, "EdgeModel needs >= 1 edge");
}

LaneShape EdgeModel::lane_shape(const Graph& graph,
                                const EdgeModelParams& params) {
  if (params.lazy || !graph.is_regular() ||
      graph.arc_count() >= burst::kMaxChunkedArcs) {
    return {};
  }
  return {LaneShape::Rule::edge, params.alpha};
}

NodeSelection EdgeModel::step_recorded(Rng& rng) {
  NodeSelection selection;
  if (params_.lazy && rng.next_bool(0.5)) {
    apply(selection);
    return selection;
  }
  const auto arc = static_cast<ArcId>(
      rng.next_below(static_cast<std::uint64_t>(graph().arc_count())));
  selection.node = graph().arc_source(arc);
  selection.sample.push_back(graph().arc_target(arc));
  apply(selection);
  return selection;
}

void EdgeModel::step_burst(Rng& rng, std::int64_t n_steps) {
  OPINDYN_EXPECTS(n_steps >= 0, "n_steps must be >= 0");
  const Graph& g = graph();
  if (g.arc_count() >= burst::kMaxChunkedArcs) {
    step_burst_generic(rng, n_steps);
    return;
  }
  OpinionState& state = mutable_state();
  const auto arcs = static_cast<std::uint64_t>(g.arc_count());
  const NodeId d = g.min_degree();
  if (g.is_regular() && std::has_single_bit(static_cast<unsigned>(d))) {
    EdgeRegularPow2Topo topo{
        g.adjacency_data(),
        std::countr_zero(static_cast<unsigned>(d)),
        g.stationary(0)};
    run_edge_burst(rng, n_steps, params_.lazy, alpha(), state,
                   state.mutable_values(), arcs, topo);
  } else {
    EdgeGeneralTopo topo{g.adjacency_data(), g.arc_source_data(),
                         state.stationary_data()};
    run_edge_burst(rng, n_steps, params_.lazy, alpha(), state,
                   state.mutable_values(), arcs, topo);
  }
  advance_time(n_steps);
}

void EdgeModel::step_burst_generic(Rng& rng, std::int64_t n_steps) {
  OpinionState& state = mutable_state();
  const Graph& g = graph();
  const double* values = state.values().data();
  const double a = alpha();
  const double one_minus_a = 1.0 - a;
  const auto arcs = static_cast<std::uint64_t>(g.arc_count());
  const bool lazy = params_.lazy;
  for (std::int64_t s = 0; s < n_steps; ++s) {
    if (lazy && rng.next_bool(0.5)) {
      continue;  // lazy no-op: consumes the coin, still counts a step
    }
    const auto arc = static_cast<ArcId>(rng.next_below(arcs));
    const NodeId u = g.arc_source(arc);
    const NodeId v = g.arc_target(arc);
    state.set_value(
        u, a * values[static_cast<std::size_t>(u)] +
               one_minus_a * (0.0 + values[static_cast<std::size_t>(v)]));
  }
  advance_time(n_steps);
}

}  // namespace opindyn
