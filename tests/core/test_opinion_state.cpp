#include "src/core/opinion_state.h"

#include <gtest/gtest.h>

#include "src/core/initial_values.h"
#include "src/graph/generators.h"
#include "src/support/assert.h"
#include "src/support/rng.h"

namespace opindyn {
namespace {

TEST(OpinionState, TracksAveragesExactly) {
  const Graph g = gen::star(4);  // degrees 3,1,1,1; 2m = 6
  OpinionState state(g, {6.0, 0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(state.average(), 1.5);
  EXPECT_DOUBLE_EQ(state.weighted_average(), 3.0);
  state.set_value(1, 6.0);
  EXPECT_DOUBLE_EQ(state.average(), 3.0);
  EXPECT_DOUBLE_EQ(state.weighted_average(), 4.0);
}

TEST(OpinionState, PhiMatchesPairwiseDefinition) {
  // phi = (1/2) sum_{u,v} pi_u pi_v (xi_u - xi_v)^2  (Eq. 3).
  const Graph g = gen::lollipop(4, 2);
  Rng rng(5);
  const auto xi = initial::gaussian(rng, g.node_count(), 0.0, 2.0);
  OpinionState state(g, xi);
  double pairwise = 0.0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const double diff = xi[static_cast<std::size_t>(u)] -
                          xi[static_cast<std::size_t>(v)];
      pairwise += 0.5 * g.stationary(u) * g.stationary(v) * diff * diff;
    }
  }
  EXPECT_NEAR(state.phi(), pairwise, 1e-12);
  EXPECT_NEAR(state.phi_exact(), pairwise, 1e-12);
}

TEST(OpinionState, PhiPlainMatchesDefinition) {
  // phi_V = (1/2n) sum_{x,y} (xi_x - xi_y)^2 (Prop. D.1).
  const Graph g = gen::cycle(6);
  const std::vector<double> xi{1.0, -2.0, 3.0, 0.5, 0.0, -1.0};
  OpinionState state(g, xi);
  double pairwise = 0.0;
  for (const double a : xi) {
    for (const double b : xi) {
      pairwise += (a - b) * (a - b);
    }
  }
  pairwise /= 2.0 * 6.0;
  EXPECT_NEAR(state.phi_plain(), pairwise, 1e-12);
  EXPECT_NEAR(state.phi_plain_exact(), pairwise, 1e-12);
}

TEST(OpinionState, IncrementalMatchesRecomputeAfterManyUpdates) {
  const Graph g = gen::cycle(32);
  Rng rng(7);
  OpinionState state(g, initial::uniform(rng, 32, -1.0, 1.0));
  for (int i = 0; i < 200000; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(32));
    state.set_value(u, rng.next_double(-1.0, 1.0));
  }
  const double incremental_phi = state.phi();
  const double incremental_avg = state.average();
  const double incremental_m = state.weighted_average();
  state.recompute();
  EXPECT_NEAR(state.phi(), incremental_phi, 1e-9);
  EXPECT_NEAR(state.average(), incremental_avg, 1e-11);
  EXPECT_NEAR(state.weighted_average(), incremental_m, 1e-11);
}

TEST(OpinionState, PhiExactStaysAccurateNearConvergence) {
  // Near-converged values: fast phi suffers cancellation; exact does not.
  const Graph g = gen::complete(8);
  std::vector<double> xi(8, 1000.0);
  xi[0] = 1000.0 + 1e-9;
  OpinionState state(g, xi);
  // True phi = pi0 (1-pi0) * (1e-9)^2 with pi uniform 1/8.  The offset
  // 1e-9 on a base of 1000 is itself only representable to ~1e-13
  // absolute (double spacing at 1e3), so allow ~1e-3 relative slack;
  // the point is that the S2 - S1^2 form would be off by *ten orders of
  // magnitude* here while the centered form is at representation error.
  const double expected = (1.0 / 8.0) * (7.0 / 8.0) * 1e-18;
  EXPECT_NEAR(state.phi_exact(), expected, expected * 1e-3);
}

TEST(OpinionState, RejectsMismatchedSizesAndBadIndices) {
  const Graph g = gen::cycle(4);
  EXPECT_THROW(OpinionState(g, {1.0, 2.0}), ContractError);
#if OPINDYN_HOT_PATH_CHECKS
  // value/set_value range checks are hot-path-only (see support/assert.h).
  OpinionState state(g, {1.0, 2.0, 3.0, 4.0});
  EXPECT_THROW(state.value(4), ContractError);
  EXPECT_THROW(state.set_value(-1, 0.0), ContractError);
#endif
}

TEST(OpinionState, L2SquaredTracked) {
  const Graph g = gen::cycle(3);
  OpinionState state(g, {1.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(state.l2_squared(), 9.0);
  state.set_value(0, 0.0);
  EXPECT_DOUBLE_EQ(state.l2_squared(), 8.0);
}

}  // namespace
}  // namespace opindyn
