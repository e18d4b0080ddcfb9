#include "src/core/weighted_median_model.h"

#include <algorithm>

#include "src/core/burst_kernels.h"
#include "src/core/node_topology.h"
#include "src/support/assert.h"
#include "src/support/sampling.h"

namespace opindyn {
namespace {

/// The median burst kernel, instantiated per (k, sampling mode,
/// topology) on the kernel-v2 pipelined loop skeleton
/// (burst_kernels.h).  Consumes the rng in EXACT step() order and picks
/// the identical order statistic through the shared lower_median_inplace
/// helper, so the result is bit-identical to n_steps repeated step()
/// calls.  One fused loop, mirroring run_node_burst: software-pipelined
/// in groups of 8 steps, the group's draws resolve to neighbour nodes
/// first, then the applies walk the group in step order reading values
/// live.
///
/// Unlike the mean rule there is no FP arithmetic at all -- the update
/// moves an existing value bit pattern -- so bit-identity reduces to
/// picking the same element, which the stable shared sort guarantees.
template <int K, SamplingMode Mode, class Topo>
void run_median_burst(Rng& rng, std::int64_t n_steps, bool lazy,
                      OpinionState& state, double* vals, NodeId n,
                      const Topo& topo) {
  const auto nn = static_cast<std::uint64_t>(n);
  auto cursor = state.begin_burst();
  const double uniform_pi = topo.stationary(0);
  const auto recompute_now = [&] {
    state.recompute();
    cursor = state.begin_burst();
  };
  const NodeId* adj = topo.adjacency();
  // One full process step: draws in exact step() order, sampled values
  // read live in draw order (nothing is written until the step's draws
  // are all made, exactly like draw_selection + apply_update).
  const auto one_step = [&] {
    const auto u = static_cast<NodeId>(rng.next_below_nonzero(nn));
    const std::int64_t base = topo.row_base(u);
    const std::int32_t d = topo.degree(u);
    double m[K];
    if constexpr (Mode == SamplingMode::without_replacement) {
      // Floyd's subset draw, fused with the value gather; draw and
      // push order match sample_without_replacement exactly.
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
        m[i] = vals[static_cast<std::size_t>(
            adj[static_cast<std::size_t>(base + idx)])];
      }
    } else {
      for (int i = 0; i < K; ++i) {
        const auto idx = static_cast<std::int64_t>(
            rng.next_below_nonzero(static_cast<std::uint64_t>(d)));
        m[i] = vals[static_cast<std::size_t>(
            adj[static_cast<std::size_t>(base + idx)])];
      }
    }
    const double x = K == 1 ? m[0] : lower_median_inplace(m, K);
    const double old = vals[static_cast<std::size_t>(u)];
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
      // hoisted ahead of its applies (the xoshiro state chain is the
      // long pole); the apply phase then reads values in step order,
      // so draw order and apply order both stay exactly step()'s.
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
          double m[K];
          for (int i = 0; i < K; ++i) {
            m[i] = vals[static_cast<std::size_t>(nbr[s * K + i])];
          }
          const double x = K == 1 ? m[0] : lower_median_inplace(m, K);
          const double old = vals[static_cast<std::size_t>(unode[s])];
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
                OpinionState& state, double* vals, NodeId n,
                const Topo& topo) {
  switch (k) {
    case 1:
      // Floyd's subset draw at K = 1 is one next_below_nonzero(d), the
      // with-replacement draw: both modes share that instantiation.
      run_median_burst<1, SamplingMode::with_replacement>(
          rng, n_steps, lazy, state, vals, n, topo);
      return true;
    case 2:
      run_median_burst<2, Mode>(rng, n_steps, lazy, state, vals, n, topo);
      return true;
    case 3:
      run_median_burst<3, Mode>(rng, n_steps, lazy, state, vals, n, topo);
      return true;
    case 4:
      run_median_burst<4, Mode>(rng, n_steps, lazy, state, vals, n, topo);
      return true;
    case 8:
      run_median_burst<8, Mode>(rng, n_steps, lazy, state, vals, n, topo);
      return true;
    default:
      return false;  // uncommon k: the generic loop handles it
  }
}

template <class Topo>
bool dispatch_mode_k(SamplingMode mode, std::int64_t k, Rng& rng,
                     std::int64_t n_steps, bool lazy, OpinionState& state,
                     double* vals, NodeId n, const Topo& topo) {
  if (mode == SamplingMode::without_replacement) {
    return dispatch_k<SamplingMode::without_replacement>(
        k, rng, n_steps, lazy, state, vals, n, topo);
  }
  return dispatch_k<SamplingMode::with_replacement>(k, rng, n_steps, lazy,
                                                    state, vals, n, topo);
}

bool has_specialised_k(std::int64_t k) noexcept {
  return k == 1 || k == 2 || k == 3 || k == 4 || k == 8;
}

}  // namespace

WeightedMedianModel::WeightedMedianModel(const Graph& graph,
                                         std::vector<double> initial,
                                         const WeightedMedianParams& params)
    : AveragingProcess(graph, std::move(initial), /*alpha=*/0.0),
      params_(params) {
  OPINDYN_EXPECTS(params.k >= 1, "k must be >= 1");
  if (params.sampling == SamplingMode::without_replacement) {
    OPINDYN_EXPECTS(params.k <= graph.min_degree(),
                    "k must be <= min degree for sampling without "
                    "replacement");
  }
  scratch_.reserve(static_cast<std::size_t>(params.k));
  sample_scratch_.resize(static_cast<std::size_t>(params.k));
  median_scratch_.resize(static_cast<std::size_t>(params.k));
}

NodeId WeightedMedianModel::draw_selection(Rng& rng) {
  const auto u = static_cast<NodeId>(
      rng.next_below(static_cast<std::uint64_t>(graph().node_count())));
  const auto row = graph().neighbors(u);
  const auto d = static_cast<std::int64_t>(row.size());
  const auto k = static_cast<std::size_t>(params_.k);
  if (params_.sampling == SamplingMode::without_replacement) {
    sample_without_replacement(rng, d, params_.k, scratch_);
    for (std::size_t i = 0; i < k; ++i) {
      sample_scratch_[i] = row[static_cast<std::size_t>(scratch_[i])];
    }
  } else {
    for (std::size_t i = 0; i < k; ++i) {
      sample_scratch_[i] = row[static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(d)))];
    }
  }
  return u;
}

void WeightedMedianModel::apply_update(const NodeSelection& selection) {
  if (selection.is_noop()) {
    return;
  }
  const NodeId u = selection.node;
  const int k = static_cast<int>(selection.sample.size());
  median_scratch_.resize(selection.sample.size());
  for (int i = 0; i < k; ++i) {
    const NodeId v = selection.sample[static_cast<std::size_t>(i)];
    OPINDYN_EXPECTS(state().graph().has_edge(u, v),
                    "selection sample contains a non-neighbour");
    median_scratch_[static_cast<std::size_t>(i)] = state().value(v);
  }
  const double x = lower_median_inplace(median_scratch_.data(), k);
  mutable_state().set_value(u, x);
}

NodeSelection WeightedMedianModel::step_recorded(Rng& rng) {
  NodeSelection selection;
  if (params_.lazy && rng.next_bool(0.5)) {
    apply(selection);  // records a no-op time step
    return selection;
  }
  selection.node = draw_selection(rng);
  selection.sample.assign(sample_scratch_.begin(), sample_scratch_.end());
  apply(selection);
  return selection;
}

void WeightedMedianModel::step_burst(Rng& rng, std::int64_t n_steps) {
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
                    state, state.mutable_values(), n, topo);
  } else {
    NodeIrregularTopo topo{g.offsets_data(), g.adjacency_data(),
                           state.stationary_data()};
    dispatch_mode_k(params_.sampling, params_.k, rng, n_steps, params_.lazy,
                    state, state.mutable_values(), n, topo);
  }
  advance_time(n_steps);
}

void WeightedMedianModel::step_burst_generic(Rng& rng,
                                             std::int64_t n_steps) {
  OpinionState& state = mutable_state();
  const double* values = state.values().data();
  const bool lazy = params_.lazy;
  const int k = static_cast<int>(params_.k);
  for (std::int64_t s = 0; s < n_steps; ++s) {
    if (lazy && rng.next_bool(0.5)) {
      continue;  // lazy no-op: consumes the coin, still counts a step
    }
    const NodeId u = draw_selection(rng);
    for (int i = 0; i < k; ++i) {
      median_scratch_[static_cast<std::size_t>(i)] =
          values[static_cast<std::size_t>(
              sample_scratch_[static_cast<std::size_t>(i)])];
    }
    const double x = lower_median_inplace(median_scratch_.data(), k);
    state.set_value(u, x);
  }
  advance_time(n_steps);
}

}  // namespace opindyn
