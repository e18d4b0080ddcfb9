// Coalescing random walks and the classical voter duality (footnote 2):
// the voting time and the coalescence time have the same distribution.
#include "src/core/coalescing.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/convergence.h"
#include "src/core/voter_model.h"
#include "src/graph/generators.h"
#include "src/support/assert.h"
#include "src/support/stats.h"

namespace opindyn {
namespace {

TEST(CoalescingWalks, StartsWithOneWalkPerNode) {
  const Graph g = gen::cycle(7);
  CoalescingWalks walks(g);
  EXPECT_EQ(walks.cluster_count(), 7);
  EXPECT_FALSE(walks.coalesced());
  for (NodeId u = 0; u < 7; ++u) {
    EXPECT_EQ(walks.walks_at(u), 1);
  }
}

TEST(CoalescingWalks, TotalWalkCountIsConserved) {
  const Graph g = gen::petersen();
  CoalescingWalks walks(g);
  Rng rng(3);
  for (int t = 0; t < 5000; ++t) {
    walks.step(rng);
    std::int64_t total = 0;
    int occupied = 0;
    for (NodeId u = 0; u < 10; ++u) {
      total += walks.walks_at(u);
      occupied += walks.walks_at(u) > 0 ? 1 : 0;
    }
    ASSERT_EQ(total, 10);
    ASSERT_EQ(occupied, walks.cluster_count());
  }
}

TEST(CoalescingWalks, ClusterCountIsMonotoneNonIncreasing) {
  const Graph g = gen::complete(12);
  CoalescingWalks walks(g);
  Rng rng(5);
  int previous = walks.cluster_count();
  while (!walks.coalesced()) {
    walks.step(rng);
    ASSERT_LE(walks.cluster_count(), previous);
    previous = walks.cluster_count();
  }
  EXPECT_EQ(walks.cluster_count(), 1);
}

TEST(CoalescingWalks, EventuallyCoalescesOnEveryFamily) {
  Rng rng(7);
  for (const auto& g : {gen::cycle(8), gen::star(8), gen::path(8),
                        gen::complete(8)}) {
    const CoalescenceResult result =
        run_to_coalescence(g, rng, 100'000'000);
    EXPECT_TRUE(result.coalesced) << g.name();
    EXPECT_GT(result.steps, 0) << g.name();
  }
}

TEST(VoterDuality, CoalescenceTimeMatchesVoterConsensusTimeDistribution) {
  // Footnote 2: identical distributions.  Compare means and variances on
  // a complete graph and a cycle with all-distinct initial opinions.
  for (const auto& g : {gen::complete(10), gen::cycle(9)}) {
    RunningStats voter_times;
    RunningStats coalescence_times;
    std::vector<int> opinions(static_cast<std::size_t>(g.node_count()));
    for (NodeId u = 0; u < g.node_count(); ++u) {
      opinions[static_cast<std::size_t>(u)] = u;
    }
    constexpr int trials = 1500;
    for (int t = 0; t < trials; ++t) {
      Rng rng_v = Rng::fork(100, static_cast<std::uint64_t>(t));
      VoterModel model(g, opinions);
      ConvergenceOptions options;
      options.max_steps = 100'000'000;
      options.check_interval = 1;  // exact consensus time
      const ConvergenceResult voter =
          run_until_converged(model, rng_v, options);
      ASSERT_TRUE(voter.converged);
      voter_times.add(static_cast<double>(voter.steps));

      Rng rng_c = Rng::fork(200, static_cast<std::uint64_t>(t));
      const auto coalescence = run_to_coalescence(g, rng_c, 100'000'000);
      ASSERT_TRUE(coalescence.coalesced);
      coalescence_times.add(static_cast<double>(coalescence.steps));
    }
    // Means within joint 4-sigma.
    const double joint_se =
        std::sqrt(std::pow(voter_times.mean_ci_halfwidth() / 1.96, 2) +
                  std::pow(coalescence_times.mean_ci_halfwidth() / 1.96, 2));
    EXPECT_NEAR(voter_times.mean(), coalescence_times.mean(),
                4.0 * joint_se)
        << g.name();
    // Standard deviations within 15% (distributional match, coarse).
    EXPECT_NEAR(voter_times.stddev() / coalescence_times.stddev(), 1.0,
                0.15)
        << g.name();
  }
}

TEST(CoalescingWalks, RejectsIsolatedNodes) {
  const Graph g(2, {});  // two isolated nodes
  EXPECT_THROW(CoalescingWalks{g}, ContractError);
}

}  // namespace
}  // namespace opindyn
