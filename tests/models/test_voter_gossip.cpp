#include <gtest/gtest.h>

#include <cmath>

#include "src/core/convergence.h"
#include "src/core/gossip_model.h"
#include "src/core/initial_values.h"
#include "src/core/voter_model.h"
#include "src/graph/generators.h"
#include "src/support/assert.h"
#include "src/support/stats.h"

namespace opindyn {
namespace {

/// Runs `model` to consensus through the shared convergence loop,
/// asking the O(1) consensus predicate after every step.
ConvergenceResult run_to_consensus(VoterModel& model, Rng& rng,
                                   std::int64_t max_steps) {
  ConvergenceOptions options;
  options.max_steps = max_steps;
  options.check_interval = 1;
  return run_until_converged(model, rng, options);
}

TEST(Voter, ReachesConsensusOnSmallGraph) {
  const Graph g = gen::complete(10);
  std::vector<int> opinions(10);
  for (int i = 0; i < 10; ++i) {
    opinions[static_cast<std::size_t>(i)] = i;
  }
  Rng rng(1);
  VoterModel model(g, opinions);
  const ConvergenceResult result = run_to_consensus(model, rng, 1000000);
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.steps, 0);
  EXPECT_GE(model.opinion(0), 0.0);
  EXPECT_LT(model.opinion(0), 10.0);
}

TEST(Voter, ConsensusPreservesSomeInitialOpinion) {
  const Graph g = gen::cycle(12);
  std::vector<int> opinions(12, 7);
  opinions[3] = 42;
  Rng rng(2);
  VoterModel model(g, opinions);
  ASSERT_TRUE(run_to_consensus(model, rng, 10000000).converged);
  EXPECT_TRUE(model.opinion(0) == 7.0 || model.opinion(0) == 42.0);
}

TEST(Voter, AlreadyUnanimousIsImmediateConsensus) {
  const Graph g = gen::cycle(6);
  VoterModel model(g, std::vector<int>(6, 5));
  EXPECT_TRUE(model.has_consensus());
  EXPECT_EQ(model.distinct_opinions(), 1);
}

TEST(Voter, DistinctOpinionCountIsMonotoneNonIncreasing) {
  const Graph g = gen::petersen();
  std::vector<int> opinions{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  VoterModel model(g, opinions);
  Rng rng(3);
  int previous = model.distinct_opinions();
  for (int i = 0; i < 50000 && !model.has_consensus(); ++i) {
    model.step(rng);
    EXPECT_LE(model.distinct_opinions(), previous);
    previous = model.distinct_opinions();
  }
}

TEST(Voter, WinnerProbabilityOnCompleteGraphIsProportional) {
  // On regular graphs the voter model's winner is each opinion w.p.
  // (its initial count)/n; check 1-vs-9 split lands near 10%.
  const Graph g = gen::complete(10);
  std::vector<int> opinions(10, 0);
  opinions[0] = 1;
  int wins = 0;
  constexpr int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    Rng rng(static_cast<std::uint64_t>(t) + 100);
    VoterModel model(g, opinions);
    const bool converged = run_to_consensus(model, rng, 1000000).converged;
    wins += (converged && model.opinion(0) == 1.0) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(wins) / trials, 0.1, 0.03);
}

TEST(Voter, RejectsMismatchedOpinionVector) {
  const Graph g = gen::cycle(4);
  EXPECT_THROW(VoterModel(g, std::vector<int>(3, 0)), ContractError);
}

TEST(Gossip, PreservesAverageExactly) {
  const Graph g = gen::lollipop(5, 4);
  Rng init_rng(4);
  const auto xi = initial::uniform(init_rng, g.node_count(), -3.0, 3.0);
  GossipModel gossip(g, xi);
  const double avg0 = gossip.state().average();
  Rng rng(5);
  for (int i = 0; i < 100000; ++i) {
    gossip.step(rng);
  }
  EXPECT_NEAR(gossip.state().average(), avg0, 1e-10);
}

TEST(Gossip, ConvergesToExactAverageWithZeroVariance) {
  // The "price of simplicity" contrast: coordinated updates make F
  // deterministic = Avg(0), so Var(F) = 0.
  const Graph g = gen::cycle(16);
  Rng init_rng(6);
  auto xi = initial::gaussian(init_rng, 16, 2.0, 1.0);
  double avg0 = 0.0;
  for (const double v : xi) {
    avg0 += v;
  }
  avg0 /= 16.0;

  RunningStats finals;
  for (int r = 0; r < 50; ++r) {
    Rng rng(static_cast<std::uint64_t>(r) + 50);
    GossipModel gossip(g, xi);
    const double start = gossip.state().average();
    ConvergenceOptions options;
    options.epsilon = 1e-18;
    options.max_steps = 10000000;
    options.use_plain_potential = true;
    const ConvergenceResult result = run_until_converged(gossip, rng, options);
    ASSERT_TRUE(result.converged);
    const double final_value = gossip.state().average();
    EXPECT_NEAR(final_value, start, 1e-9);
    finals.add(final_value);
  }
  EXPECT_NEAR(finals.mean(), avg0, 1e-8);
  EXPECT_LT(finals.population_variance(), 1e-16);
}

TEST(Gossip, StepAveragesBothEndpoints) {
  const Graph g = gen::path(2);
  GossipModel gossip(g, {0.0, 10.0});
  Rng rng(7);
  gossip.step(rng);
  EXPECT_DOUBLE_EQ(gossip.state().value(0), 5.0);
  EXPECT_DOUBLE_EQ(gossip.state().value(1), 5.0);
}

}  // namespace
}  // namespace opindyn
