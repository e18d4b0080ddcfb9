// The lane kernel (core/lane_kernel.h) against per-process step_burst:
// every replica stepped in a lane must end with the values, running sums
// (phi, weighted_average, l2_squared, average), rng state and time it
// has when stepped alone, bit for bit -- over node k = 1 in both
// sampling modes and edge, on a power-of-two-degree regular graph, a
// 3-regular graph (edge reads the arc-source array) and a cycle, in
// groups of 1 to 8 (the unused lanes masked), across the 2^20 recompute
// and with lanes at different recompute phases.  The rare Lemire redraw
// is driven with crafted rng states, and the shapes the kernel does not
// cover must step alone.  On a CPU without AVX-512F the lane suites skip
// (lanes::kernel_name() is "none").
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/initial_values.h"
#include "src/core/lane_kernel.h"
#include "src/core/model.h"
#include "src/graph/generators.h"
#include "src/support/rng.h"

namespace opindyn {
namespace {

#define OPINDYN_SKIP_WITHOUT_LANES()                                   \
  do {                                                                 \
    if (!lanes::enabled()) {                                           \
      GTEST_SKIP() << "lane kernel: " << lanes::kernel_name();         \
    }                                                                  \
  } while (false)

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct ShapeCase {
  const char* name;
  ModelConfig config;
};

std::vector<ShapeCase> lane_shapes() {
  ModelConfig without;
  without.kind = ModelKind::node;
  without.alpha = 0.45;
  without.sampling = SamplingMode::without_replacement;
  ModelConfig with = without;
  with.alpha = 0.3;
  with.sampling = SamplingMode::with_replacement;
  ModelConfig edge;
  edge.kind = ModelKind::edge;
  edge.alpha = 0.6;
  return {{"node_without_replacement", without},
          {"node_with_replacement", with},
          {"edge", edge}};
}

struct GraphCase {
  const char* name;
  Graph graph;
};

/// Node counts that are not powers of two, so the node draw's bound has
/// a nonzero rejection threshold.
std::vector<GraphCase> lane_graphs() {
  Rng rng(57);
  std::vector<GraphCase> graphs;
  graphs.push_back({"random_regular_40_4", gen::random_regular(rng, 40, 4)});
  graphs.push_back({"random_regular_30_3", gen::random_regular(rng, 30, 3)});
  graphs.push_back({"cycle_21", gen::cycle(21)});
  return graphs;
}

/// `count` replicas of one configuration, replica l on fork(seed, l).
struct Replicas {
  std::vector<std::unique_ptr<AveragingProcess>> processes;
  std::vector<Rng> rngs;

  Replicas(const Graph& graph, const ModelConfig& config,
           const std::vector<double>& initial, int count,
           std::uint64_t seed) {
    for (int l = 0; l < count; ++l) {
      processes.push_back(make_process(graph, config, initial));
      rngs.push_back(Rng::fork(seed, static_cast<std::uint64_t>(l)));
    }
  }

  std::vector<AveragingProcess*> group() {
    std::vector<AveragingProcess*> out;
    for (auto& process : processes) {
      out.push_back(process.get());
    }
    return out;
  }
  std::vector<Rng*> rng_group() {
    std::vector<Rng*> out;
    for (Rng& rng : rngs) {
      out.push_back(&rng);
    }
    return out;
  }
  std::vector<lanes::Lane> lanes() {
    std::vector<lanes::Lane> out;
    for (std::size_t l = 0; l < processes.size(); ++l) {
      out.push_back({&processes[l]->mutable_state(), &rngs[l]});
    }
    return out;
  }
};

/// Lane l of `stepped` against replica l of `alone`, bit for bit.
void expect_same(const Replicas& stepped, const Replicas& alone,
                 bool compare_time) {
  ASSERT_EQ(stepped.processes.size(), alone.processes.size());
  for (std::size_t l = 0; l < alone.processes.size(); ++l) {
    SCOPED_TRACE("lane " + std::to_string(l));
    const OpinionState& a = stepped.processes[l]->state();
    const OpinionState& b = alone.processes[l]->state();
    for (std::size_t u = 0; u < b.values().size(); ++u) {
      ASSERT_EQ(bits(a.values()[u]), bits(b.values()[u]))
          << "value diverged at node " << u;
    }
    EXPECT_EQ(bits(a.phi()), bits(b.phi()));
    EXPECT_EQ(bits(a.weighted_average()), bits(b.weighted_average()));
    EXPECT_EQ(bits(a.l2_squared()), bits(b.l2_squared()));
    EXPECT_EQ(bits(a.average()), bits(b.average()));
    EXPECT_EQ(stepped.rngs[l], alone.rngs[l]) << "rng state diverged";
    if (compare_time) {
      EXPECT_EQ(stepped.processes[l]->time(), alone.processes[l]->time());
    }
  }
}

std::vector<double> gaussian_start(const Graph& graph) {
  Rng rng(13);
  return initial::gaussian(rng, graph.node_count(), 0.0, 1.0);
}

const std::int64_t kBursts[] = {0, 1, 7, 100, 333};

TEST(LaneKernel, StepMatchesStepBurstForEveryShapeGraphAndGroupSize) {
  OPINDYN_SKIP_WITHOUT_LANES();
  for (const GraphCase& graph : lane_graphs()) {
    const std::vector<double> xi = gaussian_start(graph.graph);
    for (const ShapeCase& shape : lane_shapes()) {
      for (int size = 1; size <= lanes::kMaxLanes; ++size) {
        SCOPED_TRACE(std::string(graph.name) + " " + shape.name +
                     " lanes=" + std::to_string(size));
        Replicas stepped(graph.graph, shape.config, xi, size, 91);
        Replicas alone(graph.graph, shape.config, xi, size, 91);
        const LaneShape lane_shape = stepped.processes[0]->lane_shape();
        ASSERT_NE(lane_shape.rule, LaneShape::Rule::none);
        const std::vector<lanes::Lane> group = stepped.lanes();
        for (const std::int64_t burst : kBursts) {
          lanes::step(lane_shape, group, burst);
          for (int l = 0; l < size; ++l) {
            alone.processes[static_cast<std::size_t>(l)]->step_burst(
                alone.rngs[static_cast<std::size_t>(l)], burst);
          }
        }
        expect_same(stepped, alone, /*compare_time=*/false);
      }
    }
  }
}

TEST(LaneKernel, GroupBurstMatchesEveryProcessAloneAndAdvancesTime) {
  OPINDYN_SKIP_WITHOUT_LANES();
  const std::vector<GraphCase> graphs = lane_graphs();
  const Graph& graph = graphs[1].graph;  // 3-regular: the arc-source path
  const std::vector<double> xi = gaussian_start(graph);
  for (const ShapeCase& shape : lane_shapes()) {
    for (int size = 1; size <= lanes::kMaxLanes; ++size) {
      SCOPED_TRACE(std::string(shape.name) + " size=" +
                   std::to_string(size));
      Replicas stepped(graph, shape.config, xi, size, 92);
      Replicas alone(graph, shape.config, xi, size, 92);
      std::int64_t lane_steps = 0;
      std::int64_t total = 0;
      for (const std::int64_t burst : kBursts) {
        lane_steps += AveragingProcess::step_burst_group(
            stepped.group(), stepped.rng_group(), burst);
        total += burst;
        for (int l = 0; l < size; ++l) {
          alone.processes[static_cast<std::size_t>(l)]->step_burst(
              alone.rngs[static_cast<std::size_t>(l)], burst);
        }
      }
      EXPECT_EQ(lane_steps, size >= lanes::kMinLanes ? total * size : 0);
      expect_same(stepped, alone, /*compare_time=*/true);
    }
  }
}

TEST(LaneKernel, BurstsStraddlingTheRecomputeAtDifferentPhases) {
  OPINDYN_SKIP_WITHOUT_LANES();
  // Lane l first steps l * 997 steps alone, so the lanes reach the
  // 2^20 rebuild at different steps of one lane burst; the bursts of
  // 300001 straddle it.  The graphs are large enough that no replica
  // reaches floating-point consensus within the 1.2M steps, so the
  // running sums still move after the rebuild.
  Rng graph_rng(60);
  const GraphCase graphs[] = {
      {"cycle_1001", gen::cycle(1001)},
      {"random_regular_4098_3", gen::random_regular(graph_rng, 4098, 3)}};
  for (const GraphCase& graph_case : graphs) {
    const Graph& graph = graph_case.graph;
    const std::vector<double> xi = gaussian_start(graph);
    for (const ShapeCase& shape : lane_shapes()) {
      for (const int size : {3, 8}) {
        SCOPED_TRACE(std::string(graph_case.name) + " " + shape.name +
                     " lanes=" + std::to_string(size));
        Replicas stepped(graph, shape.config, xi, size, 93);
        Replicas alone(graph, shape.config, xi, size, 93);
        for (int l = 0; l < size; ++l) {
          const auto i = static_cast<std::size_t>(l);
          stepped.processes[i]->step_burst(stepped.rngs[i], l * 997);
          alone.processes[i]->step_burst(alone.rngs[i], l * 997);
        }
        const LaneShape lane_shape = stepped.processes[0]->lane_shape();
        const std::vector<lanes::Lane> group = stepped.lanes();
        for (int burst = 0; burst < 4; ++burst) {
          lanes::step(lane_shape, group, 300001);
          for (int l = 0; l < size; ++l) {
            const auto i = static_cast<std::size_t>(l);
            alone.processes[i]->step_burst(alone.rngs[i], 300001);
          }
        }
        expect_same(stepped, alone, /*compare_time=*/false);
        for (const auto& process : alone.processes) {
          ASSERT_GT(process->state().discrepancy(), 1e-12);
        }
      }
    }
  }
}

TEST(LaneKernel, SignedZerosKeepTheirBits) {
  OPINDYN_SKIP_WITHOUT_LANES();
  // alpha * old + (1 - alpha) * (0.0 + neighbour): the leading 0.0 + turns
  // a neighbour's -0.0 into +0.0, so a lane that drops it leaves -0.0
  // where the scalar kernels store +0.0.
  const std::vector<GraphCase> graphs = lane_graphs();
  for (const GraphCase& graph : graphs) {
    std::vector<double> xi(static_cast<std::size_t>(graph.graph.node_count()),
                           -0.0);
    xi[3] = 0.0;
    for (const ShapeCase& shape : lane_shapes()) {
      SCOPED_TRACE(std::string(graph.name) + " " + shape.name);
      Replicas stepped(graph.graph, shape.config, xi, 8, 94);
      Replicas alone(graph.graph, shape.config, xi, 8, 94);
      const LaneShape lane_shape = stepped.processes[0]->lane_shape();
      lanes::step(lane_shape, stepped.lanes(), 64);
      for (std::size_t l = 0; l < 8; ++l) {
        alone.processes[l]->step_burst(alone.rngs[l], 64);
      }
      expect_same(stepped, alone, /*compare_time=*/false);
    }
  }
}

// --- The redraw path --------------------------------------------------
// Lemire's method redraws when the low product word falls below
// (2^64 - bound) mod bound, less than once in 2^32 draws for these
// bounds, so natural streams never reach it.  These tests build rng
// states whose next word is chosen: xoshiro256++ outputs
// rotl(s0 + s3, 23) + s0, so any s0 and s3 = rotr(x - s0, 23) - s0
// give x.

std::uint64_t rotr(std::uint64_t x, int k) {
  return (x >> k) | (x << (64 - k));
}

/// A state whose next word is `x`; the free words come from `seed`.
Rng::State state_drawing(std::uint64_t x, std::uint64_t seed) {
  Rng free(seed);
  Rng::State state{free(), free(), free(), 0};
  state[3] = rotr(x - state[0], 23) - state[0];
  return state;
}

/// The state one word before `state` (xoshiro256's step inverted).
Rng::State state_before(const Rng::State& state) {
  const std::uint64_t d1 = (state[3] << 19) | (state[3] >> 45);
  const std::uint64_t a = state[0] ^ d1;
  // b1 = b ^ c1 and c2 = c1 ^ (b << 17), so b ^ (b << 17) = b1 ^ c2.
  std::uint64_t y = state[1] ^ state[2];
  std::uint64_t b = y;
  for (int shift = 17; shift < 64; shift += 17) {
    b ^= y << shift;
  }
  const std::uint64_t c1 = state[2] ^ (b << 17);
  return {a, b, c1 ^ a, d1 ^ b};
}

/// The inverse of an odd number modulo 2^64 (Newton's iteration).
std::uint64_t inverse(std::uint64_t odd) {
  std::uint64_t x = odd;
  for (int i = 0; i < 6; ++i) {
    x *= 2 - odd * x;
  }
  return x;
}

/// A first word whose low product word with `bound` is `low` rounded
/// down to a multiple of bound's largest power-of-two factor (x * bound
/// is always such a multiple).
std::uint64_t word_with_low(std::uint64_t bound, std::uint64_t low) {
  const int twos = std::countr_zero(bound);
  return (low >> twos) * inverse(bound >> twos);
}

std::uint64_t threshold_of(std::uint64_t bound) {
  return (0ULL - bound) % bound;
}

TEST(LaneKernel, CraftedStatesDrawTheChosenWords) {
  const Rng::State state = state_drawing(0x0123456789abcdefULL, 1);
  Rng rng;
  rng.set_state(state);
  EXPECT_EQ(rng(), 0x0123456789abcdefULL);
  EXPECT_EQ(state_before(rng.state()), state);
  EXPECT_EQ(word_with_low(21, 5) * 21, 5U);
}

TEST(LaneKernel, FinishBelowMatchesNextBelowOnCraftedWords) {
  // Odd bounds (the inverse exists), including the node counts, degrees
  // and arc counts of the graphs above and the largest 32-bit bound.
  const std::uint64_t bounds[] = {3, 21, 45, 4095, 0x80000001ULL,
                                  0xffffffffULL};
  int redraws = 0;
  for (const std::uint64_t bound : bounds) {
    const std::uint64_t threshold = threshold_of(bound);
    ASSERT_GT(threshold, 0U);
    // Lows below the threshold redraw; lows in [threshold, bound) take
    // the threshold branch and keep the first word.
    const std::uint64_t lows[] = {0, threshold / 2, threshold - 1, threshold,
                                  bound - 1};
    for (const std::uint64_t low : lows) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("bound=" + std::to_string(bound) +
                     " low=" + std::to_string(low) +
                     " seed=" + std::to_string(seed));
        const std::uint64_t x = word_with_low(bound, low);
        const Rng::State crafted = state_drawing(x, seed);
        Rng reference;
        reference.set_state(crafted);
        const std::uint64_t expected = reference.next_below(bound);

        Rng lane;
        lane.set_state(crafted);
        ASSERT_EQ(lane(), x);
        Rng::State state = lane.state();
        EXPECT_EQ(lanes::finish_below(state, x, bound), expected);
        EXPECT_EQ(state, reference.state());
        // Words consumed: the first, plus one per redraw.
        Rng walker;
        walker.set_state(crafted);
        int words = 0;
        while (walker.state() != reference.state() && words < 64) {
          walker();
          ++words;
        }
        EXPECT_EQ(words, low < threshold ? 2 : 1);
        redraws += low < threshold ? 1 : 0;
      }
    }
  }
  EXPECT_GT(redraws, 0);
}

TEST(LaneKernel, VectorRedrawPathMatchesStepBurst) {
  OPINDYN_SKIP_WITHOUT_LANES();
  // Lanes 0, 2 and 5 start on crafted states whose first bounded draw
  // redraws: the node draw u (bound n), the node row draw (bound d,
  // the second word), or the edge arc draw (bound 2m).  The others
  // start on natural streams, so the vector path finishes three lanes
  // in scalar code and keeps five.
  const std::vector<GraphCase> graphs = lane_graphs();
  for (const std::size_t g : {std::size_t{1}, std::size_t{2}}) {
    const Graph& graph = graphs[g].graph;
    const std::vector<double> xi = gaussian_start(graph);
    for (const ShapeCase& shape : lane_shapes()) {
      const bool node = shape.config.kind == ModelKind::node;
      const auto first_bound = static_cast<std::uint64_t>(
          node ? graph.node_count() : graph.arc_count());
      const auto degree = static_cast<std::uint64_t>(graph.min_degree());
      for (const bool second_word : {false, true}) {
        // Edge steps draw one word; the cycle's degree 2 has no
        // rejection threshold at all.
        if (second_word && (!node || threshold_of(degree) == 0)) {
          continue;
        }
        SCOPED_TRACE(std::string(graphs[g].name) + " " + shape.name +
                     (second_word ? " row draw" : " first draw"));
        Replicas stepped(graph, shape.config, xi, 8, 95);
        Replicas alone(graph, shape.config, xi, 8, 95);
        const std::uint64_t bound = second_word ? degree : first_bound;
        for (const std::size_t l : {0, 2, 5}) {
          const Rng::State drawing = state_drawing(
              word_with_low(bound, threshold_of(bound) * l / 8), 100 + l);
          const Rng::State crafted =
              second_word ? state_before(drawing) : drawing;
          stepped.rngs[l].set_state(crafted);
          alone.rngs[l].set_state(crafted);
        }
        const LaneShape lane_shape = stepped.processes[0]->lane_shape();
        for (const std::int64_t burst : {1, 5, 200}) {
          lanes::step(lane_shape, stepped.lanes(), burst);
          for (std::size_t l = 0; l < 8; ++l) {
            alone.processes[l]->step_burst(alone.rngs[l], burst);
          }
        }
        expect_same(stepped, alone, /*compare_time=*/false);
      }
    }
  }
}

// --- Shapes the kernel does not cover ----------------------------------

TEST(LaneKernel, FallbackShapesStepAloneWithIdenticalResults) {
  Rng graph_rng(58);
  const Graph regular = gen::random_regular(graph_rng, 40, 4);
  const Graph irregular = gen::preferential_attachment(graph_rng, 40, 2);
  ModelConfig lazy_node;
  lazy_node.lazy = true;
  ModelConfig k2;
  k2.k = 2;
  ModelConfig lazy_edge;
  lazy_edge.kind = ModelKind::edge;
  lazy_edge.lazy = true;
  ModelConfig node;
  ModelConfig edge;
  edge.kind = ModelKind::edge;
  ModelConfig voter;
  voter.kind = ModelKind::voter;
  struct Fallback {
    const char* name;
    const Graph* graph;
    ModelConfig config;
  };
  const Fallback cases[] = {{"lazy node", &regular, lazy_node},
                            {"node k=2", &regular, k2},
                            {"lazy edge", &regular, lazy_edge},
                            {"node pref_attach", &irregular, node},
                            {"edge pref_attach", &irregular, edge},
                            {"voter", &regular, voter}};
  for (const Fallback& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<double> xi = gaussian_start(*c.graph);
    EXPECT_EQ(lane_shape(c.config, *c.graph).rule, LaneShape::Rule::none);
    EXPECT_EQ(lanes::group_width(64, lane_shape(c.config, *c.graph),
                                 c.graph->node_count()),
              1);
    Replicas stepped(*c.graph, c.config, xi, 8, 96);
    Replicas alone(*c.graph, c.config, xi, 8, 96);
    EXPECT_EQ(stepped.processes[0]->lane_shape().rule,
              LaneShape::Rule::none);
    for (const std::int64_t burst : kBursts) {
      EXPECT_EQ(AveragingProcess::step_burst_group(
                    stepped.group(), stepped.rng_group(), burst),
                0);
      for (std::size_t l = 0; l < 8; ++l) {
        alone.processes[l]->step_burst(alone.rngs[l], burst);
      }
    }
    expect_same(stepped, alone, /*compare_time=*/true);
  }
}

TEST(LaneKernel, ShapesAgreeBetweenConfigAndProcess) {
  Rng graph_rng(59);
  const Graph graph = gen::random_regular(graph_rng, 40, 4);
  const std::vector<double> xi = gaussian_start(graph);
  for (const ShapeCase& shape : lane_shapes()) {
    SCOPED_TRACE(shape.name);
    const LaneShape expected = lane_shape(shape.config, graph);
    EXPECT_NE(expected.rule, LaneShape::Rule::none);
    EXPECT_EQ(expected.alpha, shape.config.alpha);
    EXPECT_EQ(make_process(graph, shape.config, xi)->lane_shape(), expected);
  }
}

TEST(LaneKernel, GroupWidthFollowsReplicasSizeAndSupport) {
  const LaneShape node{LaneShape::Rule::node, 0.5};
  if (lanes::enabled()) {
    EXPECT_EQ(lanes::group_width(24, node, 16384), 8);
    EXPECT_EQ(lanes::group_width(16, node, 16384), 8);
    for (const std::int64_t replicas : {15, 9, 8, 7, 5, 4}) {
      EXPECT_EQ(lanes::group_width(replicas, node, 16384), 8) << replicas;
    }
    EXPECT_EQ(lanes::group_width(3, node, 16384), 1);
    EXPECT_EQ(lanes::group_width(24, node, lanes::kMaxNodes), 8);
    EXPECT_EQ(lanes::group_width(24, node, lanes::kMaxNodes + 1), 1);
    EXPECT_EQ(std::string(lanes::kernel_name()), "avx512f");
  }
  EXPECT_EQ(lanes::group_width(24, LaneShape{}, 1024), 1);
  const std::string kernel = lanes::kernel_name();
  EXPECT_TRUE(kernel == "avx512f" || kernel == "none") << kernel;
  {
    const lanes::ScopedDisable off;
    EXPECT_FALSE(lanes::enabled());
    EXPECT_EQ(lanes::group_width(24, node, 1024), 1);
    // The switch is not the CPU check: the kernel name stays.
    EXPECT_EQ(lanes::kernel_name(), kernel);
  }
}

}  // namespace
}  // namespace opindyn
