// The k-sample burst kernel that NodeModel (Definition 2.1) and
// WeightedMedianModel (arXiv:1909.06474) share.  Both pick a uniform
// node u and a k-sample of its neighbours and differ only in the
// aggregation, which the kernel takes as a `Rule`:
//
//   double operator()(double old, double* m, int k) const
//
// maps u's old value and the sampled values m[0..k), in draw order, to
// u's new value (it may reorder m).  Each model instantiates the kernel
// with its rule in its own kernel TU (src/CMakeLists.txt).
//
// run_burst consumes the rng in EXACT step() order, so the result is
// bit-identical to n_steps repeated step() calls.  k in {1, 2, 3, 4, 8}
// runs the chunked kernel (burst_kernels.h); any other k, and graphs
// with 2m >= 2^31, run the generic loop.
#ifndef OPINDYN_CORE_K_SAMPLE_BURST_H
#define OPINDYN_CORE_K_SAMPLE_BURST_H

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "src/core/burst_kernels.h"
#include "src/core/node_model.h"  // KSample, SamplingMode
#include "src/core/node_topology.h"
#include "src/core/opinion_state.h"
#include "src/support/rng.h"

namespace opindyn {
namespace ksample {

/// One step's draws in exact step() order: the updating node u
/// (returned) and its K sampled neighbours, written to nbr[0..K) in
/// draw order.  Reads no values, so the pipelined group runs a whole
/// group's draws ahead of its applies.  Forced inline: left to itself,
/// GCC calls it out of line from the irregular-graph Floyd kernels.
template <int K, SamplingMode Mode, class Topo>
[[gnu::always_inline]] inline NodeId draw_step(Rng& rng, std::uint64_t n,
                                               const Topo& topo, NodeId* nbr) {
  const auto u = static_cast<NodeId>(rng.next_below_nonzero(n));
  const NodeId* row = topo.adjacency() + topo.row_base(u);
  const std::int32_t d = topo.degree(u);
  if constexpr (Mode == SamplingMode::without_replacement) {
    // Floyd's subset draw; draw order and positions match
    // sample_without_replacement exactly.
    std::int32_t picked[K];
    for (int i = 0; i < K; ++i) {
      const std::int32_t j = d - K + i;
      const auto t = static_cast<std::int32_t>(
          rng.next_below_nonzero(static_cast<std::uint64_t>(j) + 1));
      bool duplicate = false;
      for (int q = 0; q < i; ++q) {
        duplicate |= picked[q] == t;
      }
      picked[i] = duplicate ? j : t;
      nbr[i] = row[picked[i]];
    }
  } else {
    for (int i = 0; i < K; ++i) {
      nbr[i] = row[rng.next_below_nonzero(static_cast<std::uint64_t>(d))];
    }
  }
  return u;
}

/// The chunked kernel (burst_kernels.h: draw a group of 8 steps, then
/// apply it in step order).  Hoisting the draws was worth ~1.4x over a
/// straight per-step loop.  The loop is bound by instruction
/// throughput, not the rng's serial latency: a K = 1 mean step issues
/// about 50 scalar micro-ops, and two replicas' streams interleaved in
/// one loop ran no faster than one.  The lane kernel
/// (core/lane_kernel.h) issues them once for up to eight replicas.
/// `rule` is taken by value: through a reference, every vals[] store
/// could alias its fields, and GCC reloads them on each step.
template <int K, SamplingMode Mode, class Topo, class Rule>
void run_chunked(Rng& rng, std::int64_t n_steps, bool lazy, Rule rule,
                 OpinionState& state, const Topo& topo) {
  const auto n = static_cast<std::uint64_t>(state.graph().node_count());
  double* vals = state.mutable_values();
  auto cursor = state.begin_burst();
  const double uniform_pi = topo.stationary(0);
  // Applies one drawn step, reading the sampled values live: a step
  // sees every write of the steps before it, as in step().
  const auto apply = [&](NodeId u, double pi, const NodeId* nbr) {
    double m[K];
    for (int i = 0; i < K; ++i) {
      m[i] = vals[static_cast<std::size_t>(nbr[i])];
    }
    const double old = vals[static_cast<std::size_t>(u)];
    const double x = rule(old, m, K);
    cursor.update(pi, old, x);
    vals[static_cast<std::size_t>(u)] = x;
  };
  const auto one_step = [&] {
    NodeId nbr[K];
    const NodeId u = draw_step<K, Mode>(rng, n, topo, nbr);
    apply(u, Topo::kUniformPi ? uniform_pi : topo.stationary(u), nbr);
  };
  std::int64_t done = 0;
  while (done < n_steps) {
    const std::int64_t chunk =
        std::min<std::int64_t>(burst::kChunkSteps, n_steps - done);
    if (!lazy && cursor.countdown() > chunk) [[likely]] {
      constexpr int kGroup = 8;
      std::int64_t c = 0;
      for (; c + kGroup <= chunk; c += kGroup) {
        NodeId unode[kGroup];
        NodeId nbr[kGroup * K];
        double pis[kGroup];
        for (int s = 0; s < kGroup; ++s) {
          unode[s] = draw_step<K, Mode>(rng, n, topo, nbr + s * K);
          if constexpr (!Topo::kUniformPi) {
            pis[s] = topo.stationary(unode[s]);
          }
        }
        for (int s = 0; s < kGroup; ++s) {
          apply(unode[s], Topo::kUniformPi ? uniform_pi : pis[s],
                nbr + s * K);
        }
      }
      for (; c < chunk; ++c) {
        one_step();
      }
      cursor.advance(chunk);
    } else {
      // Per-update accounting fires at exactly the count where
      // set_value's tail recompute would.
      for (std::int64_t c = 0; c < chunk; ++c) {
        if (lazy && rng.next_bool(0.5)) {
          continue;  // lazy no-op: consumes the coin, still counts a step
        }
        one_step();
        if (cursor.advance_one()) {
          state.recompute();
          cursor = state.begin_burst();
        }
      }
    }
    done += chunk;
  }
  state.end_burst(cursor);
}

/// The sampling-mode dispatch onto the chunked kernel for one K.
template <int K, class Topo, class Rule>
void run_mode(SamplingMode mode, Rng& rng, std::int64_t n_steps, bool lazy,
              Rule rule, OpinionState& state, const Topo& topo) {
  // Floyd's subset draw at K = 1 is one next_below_nonzero(d), the
  // with-replacement draw: both modes share that instantiation.
  constexpr SamplingMode kFloyd = K == 1 ? SamplingMode::with_replacement
                                         : SamplingMode::without_replacement;
  if (mode == SamplingMode::without_replacement) {
    run_chunked<K, kFloyd>(rng, n_steps, lazy, rule, state, topo);
  } else {
    run_chunked<K, SamplingMode::with_replacement>(rng, n_steps, lazy, rule,
                                                   state, topo);
  }
}

/// The runtime-k loop: one recorded-path draw and one set_value per
/// step.
template <class Rule>
void run_generic(Rng& rng, std::int64_t n_steps, bool lazy, Rule rule,
                 OpinionState& state, KSample& sample) {
  // values() never reallocates under set_value, so one raw pointer
  // serves the whole burst; reads through it skip per-access checks.
  const double* values = state.values().data();
  const int k = static_cast<int>(sample.k());
  double* m = sample.values();
  for (std::int64_t s = 0; s < n_steps; ++s) {
    if (lazy && rng.next_bool(0.5)) {
      continue;  // lazy no-op: consumes the coin, still counts a step
    }
    const NodeId u = sample.draw(rng, state.graph());
    for (int i = 0; i < k; ++i) {
      m[i] = values[static_cast<std::size_t>(sample.nodes()[i])];
    }
    state.set_value(u, rule(values[static_cast<std::size_t>(u)], m, k));
  }
}

/// Advances `state` n_steps steps of the k-sample rule `rule`, consuming
/// `rng` exactly as n_steps step() calls do.  The caller advances time.
template <class Rule>
void run_burst(Rng& rng, std::int64_t n_steps, bool lazy, Rule rule,
               OpinionState& state, KSample& sample) {
  const SamplingMode mode = sample.mode();
  const auto dispatch_k = [&](const auto& topo) {
    switch (sample.k()) {
      case 1: return run_mode<1>(mode, rng, n_steps, lazy, rule, state, topo);
      case 2: return run_mode<2>(mode, rng, n_steps, lazy, rule, state, topo);
      case 3: return run_mode<3>(mode, rng, n_steps, lazy, rule, state, topo);
      case 4: return run_mode<4>(mode, rng, n_steps, lazy, rule, state, topo);
      case 8: return run_mode<8>(mode, rng, n_steps, lazy, rule, state, topo);
      default: return run_generic(rng, n_steps, lazy, rule, state, sample);
    }
  };
  const Graph& g = state.graph();
  if (g.arc_count() >= burst::kMaxChunkedArcs) {
    run_generic(rng, n_steps, lazy, rule, state, sample);
  } else if (g.is_regular()) {
    dispatch_k(NodeRegularTopo{g.adjacency_data(), g.min_degree(),
                               g.stationary(0)});
  } else {
    dispatch_k(NodeIrregularTopo{g.offsets_data(), g.adjacency_data(),
                                 state.stationary_data()});
  }
}

}  // namespace ksample
}  // namespace opindyn

#endif  // OPINDYN_CORE_K_SAMPLE_BURST_H
