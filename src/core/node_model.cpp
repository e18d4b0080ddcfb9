#include "src/core/node_model.h"

#include <algorithm>

#include "src/core/burst_kernels.h"
#include "src/core/node_topology.h"
#include "src/support/assert.h"
#include "src/support/sampling.h"

namespace opindyn {
namespace {

/// The burst kernel, instantiated per (k, sampling mode, topology).
/// Consumes the rng in EXACT step() order and performs set_value's
/// arithmetic through a register-resident cursor, so the result is
/// bit-identical to n_steps repeated step() calls.
///
/// One fused loop, software-pipelined in groups of 8 steps: the
/// group's draws (two rng calls per step at K = 1) resolve to
/// neighbour/target nodes first, then the FP applies walk the group in
/// step order reading values live; hoisting the draws was worth ~1.4x
/// over a straight per-step loop.  What bounds the loop is instruction
/// throughput, not the rng's serial latency: a K = 1 step issues about
/// 50 scalar micro-ops (two xoshiro256++ draws, two Lemire multiplies,
/// 13 FP ops, the loads and the store), and two replicas' streams
/// interleaved in one loop ran no faster than one.  The lane kernel
/// (core/lane_kernel.h) issues those micro-ops once for up to eight
/// replicas, ~2x the per-replica rate.  The recompute cadence is counted
/// per chunk through the cursor countdown: a chunk that cannot reach
/// the recompute threshold settles its bookkeeping with one advance(),
/// and only chunks straddling the threshold (or lazy runs, whose
/// update count is coin-dependent) check per update.
template <int K, SamplingMode Mode, class Topo>
void run_node_burst(Rng& rng, std::int64_t n_steps, bool lazy, double a,
                    OpinionState& state, double* vals, NodeId n,
                    const Topo& topo) {
  const double one_minus_a = 1.0 - a;
  const double k_count = static_cast<double>(K);
  const auto nn = static_cast<std::uint64_t>(n);
  auto cursor = state.begin_burst();
  const double uniform_pi = topo.stationary(0);
  const auto recompute_now = [&] {
    state.recompute();
    cursor = state.begin_burst();
  };
  const NodeId* adj = topo.adjacency();
  // One full process step: draws in exact step() order, neighbour
  // values read live (nothing is written until after every draw of the
  // step, exactly like draw_selection + apply_update).
  const auto one_step = [&] {
    const auto u = static_cast<NodeId>(rng.next_below_nonzero(nn));
    const std::int64_t base = topo.row_base(u);
    const std::int32_t d = topo.degree(u);
    double sum = 0.0;
    if constexpr (Mode == SamplingMode::without_replacement) {
      // Floyd's subset draw, fused with the neighbour sum; draw and
      // accumulation order match sample_without_replacement exactly.
      std::int32_t picked[K];
      for (int i = 0; i < K; ++i) {
        const std::int32_t j = d - K + i;
        const auto t = static_cast<std::int32_t>(
            rng.next_below_nonzero(static_cast<std::uint64_t>(j) + 1));
        bool duplicate = false;
        for (int q = 0; q < i; ++q) {
          duplicate |= picked[q] == t;
        }
        const std::int32_t idx = duplicate ? j : t;
        picked[i] = idx;
        sum += vals[static_cast<std::size_t>(
            adj[static_cast<std::size_t>(base + idx)])];
      }
    } else {
      for (int i = 0; i < K; ++i) {
        const auto idx = static_cast<std::int64_t>(
            rng.next_below_nonzero(static_cast<std::uint64_t>(d)));
        sum += vals[static_cast<std::size_t>(
            adj[static_cast<std::size_t>(base + idx)])];
      }
    }
    // sum / 1.0 is bit-exactly sum, so k = 1 skips the division.
    const double mean = K == 1 ? sum : sum / k_count;
    const double old = vals[static_cast<std::size_t>(u)];
    const double x = a * old + one_minus_a * mean;
    cursor.update(Topo::kUniformPi ? uniform_pi : topo.stationary(u), old,
                  x);
    vals[static_cast<std::size_t>(u)] = x;
  };
  std::int64_t done = 0;
  while (done < n_steps) {
    const std::int64_t chunk =
        std::min<std::int64_t>(burst::kChunkSteps, n_steps - done);
    if (!lazy && cursor.countdown() > chunk) [[likely]] {
      // Software-pipelined 8-wide: each group's K+1 draws per step are
      // hoisted ahead of its applies, so the integer draw/Floyd work of
      // the whole group runs ahead while the FP accumulator chains of
      // the previous group drain.  Draw order and apply order both stay
      // exactly step()'s, the draw phase reads no values, and the apply
      // phase reads them in step order, so a step that reads a node
      // written earlier in the group sees the new value, exactly as in
      // step().
      constexpr int kGroup = 8;
      std::int64_t c = 0;
      for (; c + kGroup <= chunk; c += kGroup) {
        std::int32_t unode[kGroup];
        std::int32_t nbr[kGroup * K];
        double pis[kGroup];
        for (int s = 0; s < kGroup; ++s) {
          const auto u = static_cast<NodeId>(rng.next_below_nonzero(nn));
          const std::int64_t base = topo.row_base(u);
          const std::int32_t d = topo.degree(u);
          if constexpr (Mode == SamplingMode::without_replacement) {
            std::int32_t picked[K];
            for (int i = 0; i < K; ++i) {
              const std::int32_t j = d - K + i;
              const auto t = static_cast<std::int32_t>(rng.next_below_nonzero(
                  static_cast<std::uint64_t>(j) + 1));
              bool duplicate = false;
              for (int q = 0; q < i; ++q) {
                duplicate |= picked[q] == t;
              }
              const std::int32_t idx = duplicate ? j : t;
              picked[i] = idx;
              nbr[s * K + i] = static_cast<std::int32_t>(
                  adj[static_cast<std::size_t>(base + idx)]);
            }
          } else {
            for (int i = 0; i < K; ++i) {
              const auto idx = static_cast<std::int64_t>(
                  rng.next_below_nonzero(static_cast<std::uint64_t>(d)));
              nbr[s * K + i] = static_cast<std::int32_t>(
                  adj[static_cast<std::size_t>(base + idx)]);
            }
          }
          unode[s] = u;
          if constexpr (!Topo::kUniformPi) {
            pis[s] = topo.stationary(u);
          }
        }
        for (int s = 0; s < kGroup; ++s) {
          double sum = 0.0;
          for (int i = 0; i < K; ++i) {
            sum += vals[static_cast<std::size_t>(nbr[s * K + i])];
          }
          const double mean = K == 1 ? sum : sum / k_count;
          const double old = vals[static_cast<std::size_t>(unode[s])];
          const double x = a * old + one_minus_a * mean;
          cursor.update(Topo::kUniformPi ? uniform_pi : pis[s], old, x);
          vals[static_cast<std::size_t>(unode[s])] = x;
        }
      }
      for (; c < chunk; ++c) {
        one_step();
      }
      cursor.advance(chunk);
    } else {
      // Lazy runs (coin-dependent update count) and chunks straddling
      // the recompute threshold account per update, firing at exactly
      // the count where set_value's tail recompute would.
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

template <SamplingMode Mode, class Topo>
bool dispatch_k(std::int64_t k, Rng& rng, std::int64_t n_steps, bool lazy,
                double a, OpinionState& state, double* vals, NodeId n,
                const Topo& topo) {
  switch (k) {
    case 1:
      // Floyd's subset draw at K = 1 is one next_below_nonzero(d), the
      // with-replacement draw: both modes share that instantiation.
      run_node_burst<1, SamplingMode::with_replacement>(
          rng, n_steps, lazy, a, state, vals, n, topo);
      return true;
    case 2:
      run_node_burst<2, Mode>(rng, n_steps, lazy, a, state, vals, n, topo);
      return true;
    case 3:
      run_node_burst<3, Mode>(rng, n_steps, lazy, a, state, vals, n, topo);
      return true;
    case 4:
      run_node_burst<4, Mode>(rng, n_steps, lazy, a, state, vals, n, topo);
      return true;
    case 8:
      run_node_burst<8, Mode>(rng, n_steps, lazy, a, state, vals, n, topo);
      return true;
    default:
      return false;  // uncommon k: the generic loop handles it
  }
}

template <class Topo>
bool dispatch_mode_k(SamplingMode mode, std::int64_t k, Rng& rng,
                     std::int64_t n_steps, bool lazy, double a,
                     OpinionState& state, double* vals, NodeId n,
                     const Topo& topo) {
  if (mode == SamplingMode::without_replacement) {
    return dispatch_k<SamplingMode::without_replacement>(
        k, rng, n_steps, lazy, a, state, vals, n, topo);
  }
  return dispatch_k<SamplingMode::with_replacement>(k, rng, n_steps, lazy, a,
                                                    state, vals, n, topo);
}

bool has_specialised_k(std::int64_t k) noexcept {
  return k == 1 || k == 2 || k == 3 || k == 4 || k == 8;
}

}  // namespace

NodeModel::NodeModel(const Graph& graph, std::vector<double> initial,
                     const NodeModelParams& params)
    : AveragingProcess(graph, std::move(initial), params.alpha),
      params_(params) {
  OPINDYN_EXPECTS(params.k >= 1, "k must be >= 1");
  if (params.sampling == SamplingMode::without_replacement) {
    OPINDYN_EXPECTS(params.k <= graph.min_degree(),
                    "k must be <= min degree for sampling without "
                    "replacement");
  }
  scratch_.reserve(static_cast<std::size_t>(params.k));
  sample_scratch_.resize(static_cast<std::size_t>(params.k));
}

NodeId NodeModel::draw_selection(Rng& rng) {
  const auto u = static_cast<NodeId>(
      rng.next_below(static_cast<std::uint64_t>(graph().node_count())));
  const auto row = graph().neighbors(u);
  const auto d = static_cast<std::int64_t>(row.size());
  const auto k = static_cast<std::size_t>(params_.k);
  if (params_.sampling == SamplingMode::without_replacement) {
    sample_without_replacement(rng, d, params_.k, scratch_);
    for (std::size_t i = 0; i < k; ++i) {
      sample_scratch_[i] =
          row[static_cast<std::size_t>(scratch_[i])];
    }
  } else {
    for (std::size_t i = 0; i < k; ++i) {
      sample_scratch_[i] = row[static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(d)))];
    }
  }
  return u;
}

LaneShape NodeModel::lane_shape(const Graph& graph,
                                const NodeModelParams& params) {
  if (params.k != 1 || params.lazy || !graph.is_regular() ||
      graph.arc_count() >= burst::kMaxChunkedArcs) {
    return {};
  }
  return {LaneShape::Rule::node, params.alpha};
}

NodeSelection NodeModel::step_recorded(Rng& rng) {
  NodeSelection selection;
  if (params_.lazy && rng.next_bool(0.5)) {
    apply(selection);  // records a no-op time step
    return selection;
  }
  selection.node = draw_selection(rng);
  // The returned selection owns its copy (the duality replay API keeps
  // whole sequences alive); the draw itself stayed on the scratch.
  selection.sample.assign(sample_scratch_.begin(), sample_scratch_.end());
  apply(selection);
  return selection;
}

void NodeModel::step_burst(Rng& rng, std::int64_t n_steps) {
  OPINDYN_EXPECTS(n_steps >= 0, "n_steps must be >= 0");
  const Graph& g = graph();
  if (!has_specialised_k(params_.k) ||
      g.arc_count() >= burst::kMaxChunkedArcs) {
    step_burst_generic(rng, n_steps);
    return;
  }
  OpinionState& state = mutable_state();
  const NodeId n = g.node_count();
  if (g.is_regular()) {
    NodeRegularTopo topo{g.adjacency_data(), g.min_degree(),
                         g.stationary(0)};
    dispatch_mode_k(params_.sampling, params_.k, rng, n_steps, params_.lazy,
                    alpha(), state, state.mutable_values(), n, topo);
  } else {
    NodeIrregularTopo topo{g.offsets_data(), g.adjacency_data(),
                           state.stationary_data()};
    dispatch_mode_k(params_.sampling, params_.k, rng, n_steps, params_.lazy,
                    alpha(), state, state.mutable_values(), n, topo);
  }
  advance_time(n_steps);
}

void NodeModel::step_burst_generic(Rng& rng, std::int64_t n_steps) {
  OpinionState& state = mutable_state();
  // values() never reallocates under set_value, so one raw pointer
  // serves the whole burst; reads through it skip per-access checks.
  const double* values = state.values().data();
  const double a = alpha();
  const double one_minus_a = 1.0 - a;
  const double k_count = static_cast<double>(params_.k);
  const bool lazy = params_.lazy;
  for (std::int64_t s = 0; s < n_steps; ++s) {
    if (lazy && rng.next_bool(0.5)) {
      continue;  // lazy no-op: consumes the coin, still counts a step
    }
    const NodeId u = draw_selection(rng);
    double neighbour_sum = 0.0;
    for (const NodeId v : sample_scratch_) {
      neighbour_sum += values[static_cast<std::size_t>(v)];
    }
    const double neighbour_mean = neighbour_sum / k_count;
    state.set_value(u, a * values[static_cast<std::size_t>(u)] +
                           one_minus_a * neighbour_mean);
  }
  advance_time(n_steps);
}

}  // namespace opindyn
