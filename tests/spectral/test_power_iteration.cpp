#include "src/spectral/power_iteration.h"

#include <gtest/gtest.h>

#include "src/graph/generators.h"
#include "src/service/cancel_token.h"
#include "src/spectral/spectra.h"
#include "src/support/assert.h"

namespace opindyn {
namespace {

TEST(PowerIteration, TwoStateChainClosedForm) {
  // P = [[1-a, a], [b, 1-b]] has stationary (b, a)/(a+b).
  const double a = 0.3;
  const double b = 0.1;
  Matrix p(2, 2);
  p.at(0, 0) = 1 - a;
  p.at(0, 1) = a;
  p.at(1, 0) = b;
  p.at(1, 1) = 1 - b;
  const auto result = stationary_distribution(p);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.distribution[0], b / (a + b), 1e-10);
  EXPECT_NEAR(result.distribution[1], a / (a + b), 1e-10);
  EXPECT_LT(result.residual, 1e-12);
}

TEST(PowerIteration, LazyWalkStationaryIsDegreeProportional) {
  const Graph g = gen::lollipop(4, 3);
  const Matrix p = lazy_walk_matrix(g);
  const auto result = stationary_distribution(p);
  ASSERT_TRUE(result.converged);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    EXPECT_NEAR(result.distribution[static_cast<std::size_t>(u)],
                g.stationary(u), 1e-9);
  }
}

TEST(PowerIteration, DistributionSumsToOne) {
  const Graph g = gen::petersen();
  const auto result = stationary_distribution(lazy_walk_matrix(g));
  double total = 0.0;
  for (const double x : result.distribution) {
    total += x;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(PowerIteration, RejectsNonStochastic) {
  Matrix bad(2, 2, 0.3);
  EXPECT_THROW(stationary_distribution(bad), ContractError);
}

TEST(PowerIteration, NonReversibleChain) {
  // A 3-cycle with drift: pi exists though detailed balance fails.
  Matrix p(3, 3, 0.0);
  p.at(0, 1) = 0.9;
  p.at(0, 0) = 0.1;
  p.at(1, 2) = 0.9;
  p.at(1, 1) = 0.1;
  p.at(2, 0) = 0.9;
  p.at(2, 2) = 0.1;
  const auto result = stationary_distribution(p);
  ASSERT_TRUE(result.converged);
  for (const double x : result.distribution) {
    EXPECT_NEAR(x, 1.0 / 3.0, 1e-10);  // symmetric drift -> uniform
  }
}

TEST(PowerIteration, PollsTheAmbientCancelToken) {
  CancelToken token;
  token.cancel("test");
  const CancelScope scope(&token);
  EXPECT_THROW(stationary_distribution(lazy_walk_matrix(gen::petersen())),
               CancelledError);
}

}  // namespace
}  // namespace opindyn
