#include "src/core/lane_kernel.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include "src/core/burst_kernels.h"
#include "src/core/opinion_state.h"
#include "src/support/assert.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define OPINDYN_LANES_X86 1
#include <immintrin.h>
// GCC 12's AVX-512 intrinsics pass _mm512_undefined_epi32() as the
// merge source of their all-lanes forms, which -Wmaybe-uninitialized
// reports at every inlined call (GCC bug 105593).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#endif

namespace opindyn {
namespace lanes {
namespace {

std::atomic<int> g_disabled{0};

bool cpu_supported() noexcept {
#ifdef OPINDYN_LANES_X86
  static const bool supported = __builtin_cpu_supports("avx512f") != 0;
  return supported;
#else
  return false;
#endif
}

/// Per-lane scalars of one group, lane-major, so the vector kernel
/// loads and stores each field as one register.
struct LaneTable {
  alignas(64) std::uint64_t words[4][kMaxLanes] = {};
  alignas(64) double sums[4][kMaxLanes] = {};
  alignas(64) std::uint64_t values[kMaxLanes] = {};  // value-array address
};

/// What every lane of a group shares: the rule's constants and the
/// graph's arrays.
struct Shared {
  double alpha;
  double pi;  // d / 2m, one constant on a regular graph
  std::uint64_t n;
  std::uint64_t degree;
  std::uint64_t arcs;
  const NodeId* adjacency;
  const NodeId* arc_source;  // nullptr: the source is arc >> shift
  int shift;
};

#ifdef OPINDYN_LANES_X86

#define OPINDYN_LANE_TARGET __attribute__((target("avx512f")))
#define OPINDYN_LANE_INLINE \
  __attribute__((target("avx512f"), always_inline)) inline

/// xoshiro256++ on eight streams.
struct Xoshiro {
  __m512i s0, s1, s2, s3;
};

/// Rng::operator() in every lane.
OPINDYN_LANE_INLINE __m512i next_words(Xoshiro& s) {
  const __m512i result = _mm512_add_epi64(
      _mm512_rol_epi64(_mm512_add_epi64(s.s0, s.s3), 23), s.s0);
  const __m512i t = _mm512_slli_epi64(s.s1, 17);
  s.s2 = _mm512_xor_si512(s.s2, s.s0);
  s.s3 = _mm512_xor_si512(s.s3, s.s1);
  s.s1 = _mm512_xor_si512(s.s1, s.s2);
  s.s0 = _mm512_xor_si512(s.s0, s.s3);
  s.s2 = _mm512_xor_si512(s.s2, t);
  s.s3 = _mm512_rol_epi64(s.s3, 45);
  return result;
}

/// The rare path of below(): lanes whose low product word fell below
/// the bound finish their draw in scalar code, one lane at a time.
OPINDYN_LANE_TARGET __attribute__((noinline, cold)) __m512i redraw(
    __mmask8 pending, __m512i x, __m512i high, std::uint64_t bound,
    Xoshiro& s) {
  alignas(64) std::uint64_t xs[kMaxLanes];
  alignas(64) std::uint64_t highs[kMaxLanes];
  alignas(64) std::uint64_t w[4][kMaxLanes];
  _mm512_store_si512(xs, x);
  _mm512_store_si512(highs, high);
  _mm512_store_si512(w[0], s.s0);
  _mm512_store_si512(w[1], s.s1);
  _mm512_store_si512(w[2], s.s2);
  _mm512_store_si512(w[3], s.s3);
  for (int l = 0; l < kMaxLanes; ++l) {
    if (((pending >> l) & 1U) == 0) {
      continue;
    }
    Rng::State state = {w[0][l], w[1][l], w[2][l], w[3][l]};
    highs[l] = finish_below(state, xs[l], bound);
    for (int k = 0; k < 4; ++k) {
      w[k][l] = state[static_cast<std::size_t>(k)];
    }
  }
  s.s0 = _mm512_load_si512(w[0]);
  s.s1 = _mm512_load_si512(w[1]);
  s.s2 = _mm512_load_si512(w[2]);
  s.s3 = _mm512_load_si512(w[3]);
  return _mm512_load_si512(highs);
}

/// Rng::next_below_nonzero(bound) in every live lane, for bound < 2^32:
/// with x = xh 2^32 + xl, the product x * bound is ph 2^32 + pl for the
/// exact 64-bit products pl = xl * bound and ph = xh * bound, so its low
/// word is pl + (ph << 32) and its high word (ph + (pl >> 32)) >> 32.
OPINDYN_LANE_INLINE __m512i below(Xoshiro& s, __m512i bound,
                                  std::uint64_t bound_scalar,
                                  __mmask8 live) {
  const __m512i x = next_words(s);
  const __m512i pl = _mm512_mul_epu32(x, bound);
  const __m512i ph = _mm512_mul_epu32(_mm512_srli_epi64(x, 32), bound);
  const __m512i low = _mm512_add_epi64(pl, _mm512_slli_epi64(ph, 32));
  const __m512i high =
      _mm512_srli_epi64(_mm512_add_epi64(ph, _mm512_srli_epi64(pl, 32)), 32);
  const __mmask8 pending = _mm512_mask_cmplt_epu64_mask(live, low, bound);
  if (pending != 0) [[unlikely]] {
    return redraw(pending, x, high, bound_scalar, s);
  }
  return high;
}

/// The address of `node`'s value in every lane's value array.
OPINDYN_LANE_INLINE __m512i address(__m512i values, __m512i node) {
  return _mm512_add_epi64(values, _mm512_slli_epi64(node, 3));
}

/// The four running sums of every lane (BurstCursor::update's order).
struct Sums {
  __m512d sum, sum_sq, wsum, wsum_sq;
};

/// One update per live lane: u's value (at `at_u`) moves to
/// alpha * old + (1 - alpha) * (0.0 + the neighbour's value at `at_v`),
/// exactly as the scalar kernels compute it, and the sums follow
/// BurstCursor::update line for line.
OPINDYN_LANE_INLINE void apply(Sums& acc, __m512i at_u, __m512i at_v,
                               __m512d alpha, __m512d one_minus_alpha,
                               __m512d pi, __mmask8 live) {
  const __m512d zero = _mm512_setzero_pd();
  const __m512d old = _mm512_mask_i64gather_pd(zero, live, at_u, nullptr, 1);
  const __m512d nv = _mm512_mask_i64gather_pd(zero, live, at_v, nullptr, 1);
  const __m512d x =
      _mm512_add_pd(_mm512_mul_pd(alpha, old),
                    _mm512_mul_pd(one_minus_alpha, _mm512_add_pd(zero, nv)));
  const __m512d dx = _mm512_sub_pd(x, old);
  const __m512d dsq =
      _mm512_sub_pd(_mm512_mul_pd(x, x), _mm512_mul_pd(old, old));
  acc.sum = _mm512_add_pd(acc.sum, dx);
  acc.sum_sq = _mm512_add_pd(acc.sum_sq, dsq);
  acc.wsum = _mm512_add_pd(acc.wsum, _mm512_mul_pd(pi, dx));
  acc.wsum_sq = _mm512_add_pd(acc.wsum_sq, _mm512_mul_pd(pi, dsq));
  _mm512_mask_i64scatter_pd(nullptr, live, at_u, x, 1);
}

/// One step's draws in every live lane, resolved to the addresses of
/// the updating node's value and of its neighbour's: node draws u, then
/// a row position (two bounded draws); edge draws an arc and reads its
/// source by a shift (power-of-two degree) or from the arc-source array.
template <LaneShape::Rule Rule, bool kShift>
struct Draw {
  OPINDYN_LANE_TARGET Draw(const Shared& group, __m512i value_arrays,
                           __mmask8 live_lanes)
      : shared(group),
        values(value_arrays),
        live(live_lanes),
        n(_mm512_set1_epi64(static_cast<long long>(group.n))),
        d(_mm512_set1_epi64(static_cast<long long>(group.degree))),
        arcs(_mm512_set1_epi64(static_cast<long long>(group.arcs))),
        shift(_mm_cvtsi32_si128(group.shift)) {}

  OPINDYN_LANE_INLINE void operator()(Xoshiro& s, __m512i& at_u,
                                      __m512i& at_v) const {
    const __m256i none = _mm256_setzero_si256();
    __m512i u;
    __m512i arc;
    if constexpr (Rule == LaneShape::Rule::node) {
      u = below(s, n, shared.n, live);
      const __m512i idx = below(s, d, shared.degree, live);
      arc = _mm512_add_epi64(_mm512_mul_epu32(u, d), idx);
    } else {
      arc = below(s, arcs, shared.arcs, live);
      if constexpr (kShift) {
        u = _mm512_srl_epi64(arc, shift);
      } else {
        u = _mm512_cvtepu32_epi64(_mm512_mask_i64gather_epi32(
            none, live, arc, shared.arc_source, 4));
      }
    }
    const __m512i v = _mm512_cvtepu32_epi64(
        _mm512_mask_i64gather_epi32(none, live, arc, shared.adjacency, 4));
    at_u = address(values, u);
    at_v = address(values, v);
  }

  const Shared& shared;
  __m512i values;
  __mmask8 live;
  __m512i n, d, arcs;
  __m128i shift;
};

/// `n_steps` steps in every live lane of `table`, which the kernel
/// reads at entry and writes back at exit.
template <LaneShape::Rule Rule, bool kShift>
OPINDYN_LANE_TARGET void run_segment(const Shared& shared, LaneTable& table,
                                     __mmask8 live, std::int64_t n_steps) {
  Xoshiro s{_mm512_load_si512(table.words[0]),
            _mm512_load_si512(table.words[1]),
            _mm512_load_si512(table.words[2]),
            _mm512_load_si512(table.words[3])};
  Sums acc{_mm512_load_pd(table.sums[0]), _mm512_load_pd(table.sums[1]),
           _mm512_load_pd(table.sums[2]), _mm512_load_pd(table.sums[3])};
  const __m512i values = _mm512_load_si512(table.values);
  const __m512d alpha = _mm512_set1_pd(shared.alpha);
  const __m512d one_minus_alpha = _mm512_set1_pd(1.0 - shared.alpha);
  const __m512d pi = _mm512_set1_pd(shared.pi);
  const Draw<Rule, kShift> draw(shared, values, live);
  // Software-pipelined 4-wide, as the scalar kernels are 8-wide: a
  // group's draws and row reads are hoisted ahead of its applies, which
  // still read and write the values in step order.  Measured against
  // 1, 2 and 8 on a node n = 16384 group of eight.
  constexpr int kGroup = 4;
  std::int64_t step = 0;
  for (; step + kGroup <= n_steps; step += kGroup) {
    __m512i at_u[kGroup];
    __m512i at_v[kGroup];
    for (int g = 0; g < kGroup; ++g) {
      draw(s, at_u[g], at_v[g]);
    }
    for (int g = 0; g < kGroup; ++g) {
      apply(acc, at_u[g], at_v[g], alpha, one_minus_alpha, pi, live);
    }
  }
  for (; step < n_steps; ++step) {
    __m512i at_u;
    __m512i at_v;
    draw(s, at_u, at_v);
    apply(acc, at_u, at_v, alpha, one_minus_alpha, pi, live);
  }
  _mm512_store_si512(table.words[0], s.s0);
  _mm512_store_si512(table.words[1], s.s1);
  _mm512_store_si512(table.words[2], s.s2);
  _mm512_store_si512(table.words[3], s.s3);
  _mm512_store_pd(table.sums[0], acc.sum);
  _mm512_store_pd(table.sums[1], acc.sum_sq);
  _mm512_store_pd(table.sums[2], acc.wsum);
  _mm512_store_pd(table.sums[3], acc.wsum_sq);
}

void run_segment(LaneShape::Rule rule, const Shared& shared,
                 LaneTable& table, __mmask8 live, std::int64_t n_steps) {
  if (rule == LaneShape::Rule::node) {
    run_segment<LaneShape::Rule::node, false>(shared, table, live, n_steps);
  } else if (shared.arc_source == nullptr) {
    run_segment<LaneShape::Rule::edge, true>(shared, table, live, n_steps);
  } else {
    run_segment<LaneShape::Rule::edge, false>(shared, table, live, n_steps);
  }
}

#endif  // OPINDYN_LANES_X86

}  // namespace

const char* kernel_name() noexcept {
  return cpu_supported() ? "avx512f" : "none";
}

bool enabled() noexcept {
  return cpu_supported() && g_disabled.load(std::memory_order_relaxed) == 0;
}

ScopedDisable::ScopedDisable() noexcept {
  g_disabled.fetch_add(1, std::memory_order_relaxed);
}

ScopedDisable::~ScopedDisable() {
  g_disabled.fetch_sub(1, std::memory_order_relaxed);
}

std::int64_t group_width(std::int64_t replicas, const LaneShape& shape,
                         NodeId n) noexcept {
  if (!enabled() || shape.rule == LaneShape::Rule::none || n > kMaxNodes) {
    return 1;
  }
  return replicas >= kMinLanes ? kMaxLanes : 1;
}

std::uint64_t finish_below(Rng::State& state, std::uint64_t x,
                           std::uint64_t bound) noexcept {
  Rng rng;
  rng.set_state(state);
  const std::uint64_t result = rng.below_from(x, bound);
  state = rng.state();
  return result;
}

void step(const LaneShape& shape, std::span<const Lane> group,
          std::int64_t n_steps) {
  OPINDYN_EXPECTS(enabled(), "lane kernel not enabled on this CPU");
  OPINDYN_EXPECTS(shape.rule != LaneShape::Rule::none,
                  "shape not covered by the lane kernel");
  OPINDYN_EXPECTS(!group.empty() &&
                      static_cast<std::int64_t>(group.size()) <= kMaxLanes,
                  "a lane group holds 1..8 processes");
  OPINDYN_EXPECTS(n_steps >= 0, "n_steps must be >= 0");
  const Graph& g = group[0].state->graph();
  OPINDYN_EXPECTS(g.is_regular() && g.arc_count() < burst::kMaxChunkedArcs,
                  "lanes need a regular graph with 2m < 2^31");
#ifdef OPINDYN_LANES_X86
  const auto degree = static_cast<std::uint64_t>(g.min_degree());
  const bool shift = std::has_single_bit(degree);
  const Shared shared{
      shape.alpha,
      g.stationary(0),
      static_cast<std::uint64_t>(g.node_count()),
      degree,
      static_cast<std::uint64_t>(g.arc_count()),
      g.adjacency_data(),
      shift ? nullptr : g.arc_source_data(),
      std::countr_zero(degree)};
  LaneTable table;
  OpinionState::BurstCursor cursors[kMaxLanes];
  const auto count = static_cast<int>(group.size());
  const auto live = static_cast<__mmask8>((1U << count) - 1U);
  const auto load_sums = [&](int l) {
    const OpinionState::BurstCursor::Sums sums = cursors[l].sums();
    for (int k = 0; k < 4; ++k) {
      table.sums[k][l] = sums[static_cast<std::size_t>(k)];
    }
  };
  const auto store_sums = [&](int l) {
    cursors[l].set_sums({table.sums[0][l], table.sums[1][l],
                         table.sums[2][l], table.sums[3][l]});
  };
  for (int l = 0; l < count; ++l) {
    const Lane& lane = group[static_cast<std::size_t>(l)];
    OPINDYN_EXPECTS(&lane.state->graph() == &g,
                    "every lane must run over one graph");
    cursors[l] = lane.state->begin_burst();
    load_sums(l);
    table.values[l] = reinterpret_cast<std::uintptr_t>(
        lane.state->mutable_values());
    const Rng::State& words = lane.rng->state();
    for (int k = 0; k < 4; ++k) {
      table.words[k][l] = words[static_cast<std::size_t>(k)];
    }
  }
  // Segments end where some lane's recompute falls due; that lane then
  // rebuilds its sums from its values exactly where set_value's tail
  // recompute would (its cursor's sums are dropped, as the scalar
  // kernels drop theirs), and restarts its cursor.
  std::int64_t left = n_steps;
  while (left > 0) {
    std::int64_t segment = left;
    for (int l = 0; l < count; ++l) {
      segment = std::min(segment, cursors[l].countdown());
    }
    run_segment(shape.rule, shared, table, live, segment);
    left -= segment;
    for (int l = 0; l < count; ++l) {
      cursors[l].advance(segment);
      if (cursors[l].countdown() <= 0) {
        OpinionState& state = *group[static_cast<std::size_t>(l)].state;
        state.recompute();
        cursors[l] = state.begin_burst();
        load_sums(l);
      }
    }
  }
  for (int l = 0; l < count; ++l) {
    const Lane& lane = group[static_cast<std::size_t>(l)];
    store_sums(l);
    lane.state->end_burst(cursors[l]);
    lane.rng->set_state({table.words[0][l], table.words[1][l],
                         table.words[2][l], table.words[3][l]});
  }
#endif
}

}  // namespace lanes
}  // namespace opindyn
