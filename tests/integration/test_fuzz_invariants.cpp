// Randomized invariant fuzzing: random connected graphs, random model
// parameters, random initial values -- the library's structural
// invariants must hold on every draw.  Catches representation bugs the
// curated tests might miss.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/diffusion.h"
#include "src/core/edge_model.h"
#include "src/core/initial_values.h"
#include "src/core/node_model.h"
#include "src/core/weighted_median_model.h"
#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "tests/common/graph_io.h"
#include "src/support/rng.h"

namespace opindyn {
namespace {

Graph random_connected_graph(Rng& rng) {
  const auto pick = rng.next_below(5);
  const auto n = static_cast<NodeId>(6 + rng.next_below(18));
  switch (pick) {
    case 0:
      return gen::erdos_renyi_connected(rng, n, 0.35);
    case 1: {
      const NodeId d = 3 + static_cast<NodeId>(rng.next_below(2));
      const NodeId even_n = (n * d) % 2 == 0 ? n : static_cast<NodeId>(n + 1);
      return gen::random_regular(rng, even_n, d);
    }
    case 2:
      return gen::preferential_attachment(rng, n, 2);
    case 3:
      return gen::lollipop(static_cast<NodeId>(3 + rng.next_below(4)),
                           static_cast<NodeId>(1 + rng.next_below(5)));
    default:
      return gen::cycle(n);
  }
}

// Advances `process` in uneven step_burst chunks (empty, shorter than
// one 8-step group, and several kernel chunks long) and checks, with
// O(n) scan reads at every burst boundary, that the opinion hull never
// widens: min never falls, max never rises, and K = max - min never
// grows (the Section 1 argument).  `slack` absorbs the rounding of a
// convex combination; copy rules (median) need none.
void expect_hull_confined_under_bursts(AveragingProcess& process, Rng& rng,
                                       double slack) {
  constexpr std::int64_t kChunks[] = {0, 1, 7, 100, 3, 513, 64, 2049, 9};
  double lo = process.state().min_value();
  double hi = process.state().max_value();
  double spread = process.state().discrepancy();
  for (int round = 0; round < 2; ++round) {
    for (const std::int64_t chunk : kChunks) {
      process.step_burst(rng, chunk);
      const double lo_now = process.state().min_value();
      const double hi_now = process.state().max_value();
      const double spread_now = process.state().discrepancy();
      ASSERT_GE(lo_now, lo - slack) << "t=" << process.time();
      ASSERT_LE(hi_now, hi + slack) << "t=" << process.time();
      ASSERT_LE(spread_now, spread + slack) << "t=" << process.time();
      lo = lo_now;
      hi = hi_now;
      spread = spread_now;
    }
  }
}

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, GraphRepresentationInvariants) {
  Rng rng(GetParam());
  const Graph g = random_connected_graph(rng);
  ASSERT_TRUE(is_connected(g));
  // Degree sum = 2m; arcs mirror edges; stationary sums to 1.
  std::int64_t degree_sum = 0;
  double pi_sum = 0.0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    degree_sum += g.degree(u);
    pi_sum += g.stationary(u);
    for (const NodeId v : g.neighbors(u)) {
      ASSERT_TRUE(g.has_edge(v, u));
      ASSERT_NE(u, v);
    }
  }
  EXPECT_EQ(degree_sum, g.arc_count());
  EXPECT_NEAR(pi_sum, 1.0, 1e-12);
  for (ArcId j = 0; j < g.arc_count(); ++j) {
    ASSERT_TRUE(g.has_edge(g.arc_source(j), g.arc_target(j)));
  }
  // Edge-list round trip preserves the graph.
  std::stringstream buffer;
  write_edge_list(g, buffer);
  const Graph parsed = read_edge_list(buffer);
  ASSERT_EQ(parsed.edge_count(), g.edge_count());
  for (const auto& [u, v] : g.undirected_edges()) {
    ASSERT_TRUE(parsed.has_edge(u, v));
  }
}

TEST_P(FuzzSweep, ProcessInvariants) {
  Rng rng(GetParam() + 1000);
  const Graph g = random_connected_graph(rng);
  const double alpha = rng.next_double(0.05, 0.95);
  const auto k = static_cast<std::int64_t>(
      1 + rng.next_below(static_cast<std::uint64_t>(g.min_degree())));
  auto xi = initial::gaussian(rng, g.node_count(), 0.0, 2.0);

  NodeModelParams params;
  params.alpha = alpha;
  params.k = k;
  NodeModel model(g, xi, params);
  const double lo0 = model.state().min_value();
  const double hi0 = model.state().max_value();
  double previous_k = model.state().discrepancy();
  for (int t = 0; t < 3000; ++t) {
    model.step(rng);
    // Convex-hull confinement and monotone discrepancy.
    ASSERT_GE(model.state().min_value(), lo0 - 1e-12);
    ASSERT_LE(model.state().max_value(), hi0 + 1e-12);
    const double k_now = model.state().discrepancy();
    ASSERT_LE(k_now, previous_k + 1e-12);
    previous_k = k_now;
  }
  // Incremental accumulators agree with recomputation.
  const double phi_inc = model.state().phi();
  model.mutable_state().recompute();
  EXPECT_NEAR(model.state().phi(), phi_inc, 1e-8);

  // The same confinement through the burst kernels, for the node, edge
  // and weighted-median rules, on random k, sampling mode and laziness.
  const SamplingMode sampling = rng.next_bool(0.5)
                                    ? SamplingMode::with_replacement
                                    : SamplingMode::without_replacement;
  const bool lazy = rng.next_bool(0.5);
  SCOPED_TRACE(g.name() + " alpha=" + std::to_string(alpha) +
               " k=" + std::to_string(k) + " lazy=" + std::to_string(lazy) +
               " with_replacement=" +
               std::to_string(sampling == SamplingMode::with_replacement));
  {
    SCOPED_TRACE("node");
    NodeModelParams node_params = params;
    node_params.sampling = sampling;
    node_params.lazy = lazy;
    NodeModel node(g, xi, node_params);
    expect_hull_confined_under_bursts(node, rng, 1e-12);
  }
  {
    SCOPED_TRACE("edge");
    EdgeModelParams edge_params;
    edge_params.alpha = alpha;
    edge_params.lazy = lazy;
    EdgeModel edge(g, xi, edge_params);
    expect_hull_confined_under_bursts(edge, rng, 1e-12);
  }
  {
    SCOPED_TRACE("weighted_median");
    WeightedMedianParams median_params;
    median_params.k = k;
    median_params.lazy = lazy;
    median_params.sampling = sampling;
    WeightedMedianModel median(g, xi, median_params);
    expect_hull_confined_under_bursts(median, rng, 0.0);
  }
}

TEST_P(FuzzSweep, DualityOnRandomConfigurations) {
  Rng rng(GetParam() + 2000);
  const Graph g = random_connected_graph(rng);
  const double alpha = rng.next_double(0.05, 0.95);
  const auto k = static_cast<std::int64_t>(
      1 + rng.next_below(static_cast<std::uint64_t>(g.min_degree())));
  Rng init_rng(GetParam() + 3000);
  const auto xi = initial::gaussian(init_rng, g.node_count(), 0.0, 3.0);
  const auto steps = static_cast<std::int64_t>(20 + rng.next_below(200));
  const DualityCheck check =
      run_averaging_and_dual(g, xi, alpha, k, steps, GetParam() + 4000);
  EXPECT_LT(check.max_difference, 1e-9)
      << g.name() << " alpha=" << alpha << " k=" << k
      << " steps=" << steps;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace opindyn
