// Lemma 5.3 and Proposition 5.4: conditioned on a fixed selection sequence
// chi, each walk's occupation distribution equals the corresponding column
// of R(t) (first moments) and the *products* of two walks' costs match the
// products of the diffusion costs (second moments) -- the correlation
// coming solely from the shared (u(t), S(t)).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/core/diffusion.h"
#include "src/core/initial_values.h"
#include "src/core/node_model.h"
#include "tests/common/random_walks.h"
#include "src/graph/generators.h"
#include "src/support/stats.h"

namespace opindyn {
namespace {

SelectionSequence record_sequence(const Graph& g, double alpha,
                                  std::int64_t k, std::int64_t steps,
                                  std::uint64_t seed) {
  NodeModelParams params;
  params.alpha = alpha;
  params.k = k;
  NodeModel model(
      g, std::vector<double>(static_cast<std::size_t>(g.node_count()), 0.0),
      params);
  Rng rng(seed);
  SelectionSequence chi;
  chi.reserve(static_cast<std::size_t>(steps));
  for (std::int64_t t = 0; t < steps; ++t) {
    chi.push_back(model.step_recorded(rng));
  }
  return chi;
}

TEST(Lemma53, WalkOccupationMatchesDiffusionColumn) {
  const Graph g = gen::petersen();
  const double alpha = 0.4;
  const std::int64_t k = 2;
  const SelectionSequence chi = record_sequence(g, alpha, k, 40, 7);

  DiffusionProcess diffusion(g, alpha);
  diffusion.apply_sequence(chi);

  constexpr int replicas = 60000;
  const auto n = static_cast<std::size_t>(g.node_count());
  // occupation[u][x] = empirical P(walk u at node x | chi).
  std::vector<std::vector<double>> occupation(n,
                                              std::vector<double>(n, 0.0));
  Rng rng(11);
  for (int r = 0; r < replicas; ++r) {
    CorrelatedWalks walks(g, alpha);
    for (const auto& sel : chi) {
      walks.apply(sel, rng);
    }
    for (std::size_t u = 0; u < n; ++u) {
      occupation[u][static_cast<std::size_t>(walks.position(u))] +=
          1.0 / replicas;
    }
  }
  for (std::size_t u = 0; u < n; ++u) {
    const auto column = diffusion.commodity_load(static_cast<NodeId>(u));
    for (std::size_t x = 0; x < n; ++x) {
      EXPECT_NEAR(occupation[u][x], column[x], 0.01)
          << "walk " << u << " node " << x;
    }
  }
}

TEST(Lemma53, WalkCostMeanMatchesDiffusionCost) {
  const Graph g = gen::cycle(9);
  const double alpha = 0.5;
  const SelectionSequence chi = record_sequence(g, alpha, 1, 60, 13);
  Rng init_rng(5);
  const auto xi = initial::gaussian(init_rng, 9, 0.0, 2.0);

  DiffusionProcess diffusion(g, alpha);
  diffusion.apply_sequence(chi);
  const auto w = diffusion.costs(xi);

  constexpr int replicas = 60000;
  std::vector<RunningStats> cost_stats(9);
  Rng rng(17);
  for (int r = 0; r < replicas; ++r) {
    CorrelatedWalks walks(g, alpha);
    for (const auto& sel : chi) {
      walks.apply(sel, rng);
    }
    for (std::size_t u = 0; u < 9; ++u) {
      cost_stats[u].add(walks.cost(u, xi));
    }
  }
  for (std::size_t u = 0; u < 9; ++u) {
    EXPECT_NEAR(cost_stats[u].mean(), w[u],
                4.0 * cost_stats[u].mean_ci_halfwidth() + 1e-3);
  }
}

TEST(Prop54, SecondMomentsMatchDiffusionProducts) {
  // E[W~(a) W~(b) | chi] = W(a) W(b) for walks a != b: once chi is fixed
  // the walks are independent, so the product of their (conditional)
  // expectations equals the expectation of the product.
  const Graph g = gen::complete(6);
  const double alpha = 0.3;
  const std::int64_t k = 2;
  const SelectionSequence chi = record_sequence(g, alpha, k, 30, 19);
  Rng init_rng(23);
  const auto xi = initial::gaussian(init_rng, 6, 0.0, 1.0);

  DiffusionProcess diffusion(g, alpha);
  diffusion.apply_sequence(chi);
  const auto w = diffusion.costs(xi);

  constexpr int replicas = 200000;
  RunningStats product_01;
  RunningStats product_25;
  RunningStats product_33;
  Rng rng(29);
  for (int r = 0; r < replicas; ++r) {
    CorrelatedWalks walks(g, alpha);
    for (const auto& sel : chi) {
      walks.apply(sel, rng);
    }
    product_01.add(walks.cost(0, xi) * walks.cost(1, xi));
    product_25.add(walks.cost(2, xi) * walks.cost(5, xi));
    product_33.add(walks.cost(3, xi) * walks.cost(3, xi));
  }
  EXPECT_NEAR(product_01.mean(), w[0] * w[1],
              4.0 * product_01.mean_ci_halfwidth() + 1e-3);
  EXPECT_NEAR(product_25.mean(), w[2] * w[5],
              4.0 * product_25.mean_ci_halfwidth() + 1e-3);
  // Same-walk product: E[W~(3)^2] >= W(3)^2 (Jensen); equality only if
  // the conditional distribution is degenerate, so only check >=.
  EXPECT_GE(product_33.mean(),
            w[3] * w[3] - 4.0 * product_33.mean_ci_halfwidth() - 1e-3);
}

TEST(CorrelatedWalks, WalksOnlyMoveWhenSelected) {
  const Graph g = gen::path(5);
  CorrelatedWalks walks(g, 0.5);
  Rng rng(1);
  // Selection fires at node 2; walks at 0,1,3,4 must not move.
  walks.apply(NodeSelection{2, {1}}, rng);
  EXPECT_EQ(walks.position(0), 0);
  EXPECT_EQ(walks.position(1), 1);
  EXPECT_EQ(walks.position(3), 3);
  EXPECT_EQ(walks.position(4), 4);
  const NodeId p2 = walks.position(2);
  EXPECT_TRUE(p2 == 2 || p2 == 1);
}

TEST(CorrelatedWalks, PairConstructorTracksTwoWalks) {
  const Graph g = gen::cycle(6);
  CorrelatedWalks pair(g, 0.5, {2, 4});
  EXPECT_EQ(pair.walk_count(), 2u);
  EXPECT_EQ(pair.position(0), 2);
  EXPECT_EQ(pair.position(1), 4);
}

TEST(CorrelatedWalks, NoopSelectionMovesNothing) {
  const Graph g = gen::cycle(4);
  CorrelatedWalks walks(g, 0.5);
  Rng rng(2);
  walks.apply(NodeSelection{}, rng);
  for (std::size_t u = 0; u < 4; ++u) {
    EXPECT_EQ(walks.position(u), static_cast<NodeId>(u));
  }
}

}  // namespace
}  // namespace opindyn
