#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/convergence.h"
#include "src/core/degroot.h"
#include "src/core/friedkin_johnsen.h"
#include "src/core/initial_values.h"
#include "src/engine/experiment_spec.h"
#include "src/engine/runner.h"
#include "src/engine/sinks.h"
#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/spectral/solve.h"
#include "src/support/assert.h"

namespace opindyn {
namespace {

TEST(SolveDense, MatchesHandSolvedSystem) {
  Matrix a(2, 2);
  a.at(0, 0) = 2.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 3.0;
  const auto x = solve_dense(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveDense, PivotsOnZeroDiagonal) {
  Matrix a(2, 2);
  a.at(0, 0) = 0.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 0.0;
  const auto x = solve_dense(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveDense, DetectsSingularity) {
  Matrix a(2, 2, 1.0);  // rank 1
  EXPECT_THROW(solve_dense(a, {1.0, 2.0}), std::runtime_error);
}

TEST(SolveDense, ResidualIsSmallOnRandomSystem) {
  Rng rng(3);
  const std::size_t n = 20;
  Matrix a(n, n);
  std::vector<double> b(n);
  for (std::size_t r = 0; r < n; ++r) {
    b[r] = rng.next_gaussian();
    for (std::size_t c = 0; c < n; ++c) {
      a.at(r, c) = rng.next_gaussian() + (r == c ? 5.0 : 0.0);
    }
  }
  const auto x = solve_dense(a, b);
  const auto ax = a.multiply(x);
  for (std::size_t r = 0; r < n; ++r) {
    EXPECT_NEAR(ax[r], b[r], 1e-10);
  }
}

TEST(DeGroot, PreservesDegreeWeightedAverageEachRound) {
  const Graph g = gen::lollipop(4, 3);
  Rng rng(5);
  DeGrootModel model(g, initial::gaussian(rng, g.node_count(), 1.0, 2.0),
                     /*lazy=*/false);
  const double invariant = model.state().weighted_average();
  for (int round = 0; round < 50; ++round) {
    model.step(rng);
    EXPECT_NEAR(model.state().weighted_average(), invariant, 1e-10);
  }
  EXPECT_EQ(model.time(), 50);
}

TEST(DeGroot, ConvergesToDegreeWeightedAverage) {
  const Graph g = gen::petersen();
  Rng rng(7);
  const auto xi = initial::uniform(rng, 10, -3.0, 3.0);
  const double target = degree_weighted_average(g, xi);
  DeGrootModel model(g, xi, /*lazy=*/false);  // non-bipartite: converges
  model.step_burst(rng, 300);
  EXPECT_EQ(model.time(), 300);
  EXPECT_LT(model.state().discrepancy(), 1e-9);
  for (const double v : model.state().values()) {
    EXPECT_NEAR(v, target, 1e-8);
  }
}

TEST(DeGroot, BipartiteNeedsLaziness) {
  // Even cycle: the non-lazy synchronous dynamic oscillates forever on
  // the alternating vector; the lazy variant converges.
  const Graph g = gen::cycle(8);
  const auto xi = initial::alternating(8);
  Rng rng(1);
  DeGrootModel oscillating(g, xi, /*lazy=*/false);
  oscillating.step_burst(rng, 100);
  EXPECT_NEAR(oscillating.state().discrepancy(), 2.0, 1e-9);  // still +-1

  DeGrootModel lazy(g, xi, /*lazy=*/true);
  lazy.step_burst(rng, 400);
  EXPECT_LT(lazy.state().discrepancy(), 1e-6);
}

TEST(FriedkinJohnsen, IterationConvergesToDenseSolveEquilibrium) {
  const Graph g = gen::lollipop(5, 3);
  Rng rng(9);
  const auto s = initial::uniform(rng, g.node_count(), 0.0, 1.0);
  FriedkinJohnsenModel model(g, s, 0.7);
  const std::vector<double> star = model.equilibrium();
  model.step_burst(rng, 400);
  EXPECT_EQ(model.time(), 400);
  EXPECT_LT(model.distance_to_equilibrium(), 1e-10);
  // The equilibrium is solved once: later calls return the same point.
  EXPECT_EQ(&model.equilibrium(), &model.equilibrium());
  EXPECT_EQ(model.equilibrium(), star);
}

TEST(FriedkinJohnsen, StubbornAgentsPreventConsensus) {
  // Two camps with opposite private opinions never agree.
  const Graph g = gen::complete_bipartite(3, 3);
  std::vector<double> s{1, 1, 1, -1, -1, -1};
  FriedkinJohnsenModel model(g, s, 0.5);
  const auto& star = model.equilibrium();
  double spread = 0.0;
  for (const double z : star) {
    spread = std::max(spread, std::abs(z));
  }
  EXPECT_GT(spread, 0.1);  // persistent disagreement
  // And expressed opinions stay strictly between private extremes.
  for (std::size_t i = 0; i < star.size(); ++i) {
    EXPECT_LT(std::abs(star[i]), 1.0);
    EXPECT_GT(star[i] * s[i], 0.0);  // same sign as own private opinion
  }
}

TEST(FriedkinJohnsen, HighSusceptibilityApproachesDeGrootConsensus) {
  const Graph g = gen::complete(6);
  Rng rng(11);
  const auto s = initial::uniform(rng, 6, 0.0, 10.0);
  FriedkinJohnsenModel nearly_degroot(g, s, 0.99);
  const auto& star = nearly_degroot.equilibrium();
  const auto [lo, hi] = std::minmax_element(star.begin(), star.end());
  EXPECT_LT(*hi - *lo, 0.5);  // near-consensus
  FriedkinJohnsenModel stubborn(g, s, 0.1);
  const auto& star2 = stubborn.equilibrium();
  const auto [lo2, hi2] = std::minmax_element(star2.begin(), star2.end());
  EXPECT_GT(*hi2 - *lo2, *hi - *lo);  // stubbornness preserves spread
}

/// The reference stop loop the baselines used to hand-roll: one round at
/// a time until `done` holds or max_rounds have run.
template <class Done>
std::int64_t rounds_by_hand(AveragingProcess& process, Rng& rng,
                            std::int64_t max_rounds, Done done) {
  while (!done() && process.time() < max_rounds) {
    process.step(rng);
  }
  return process.time();
}

TEST(StopRule, RunUntilConvergedChecksDeGrootEveryRound) {
  const Graph g = gen::cycle(15);
  Rng init_rng(4);
  const auto xi = initial::gaussian(init_rng, 15, 0.0, 1.0);
  for (const double eps : {1e-3, 1e-9}) {
    for (const std::int64_t max_rounds : {7, 100000}) {
      SCOPED_TRACE("eps=" + std::to_string(eps) +
                   " max_rounds=" + std::to_string(max_rounds));
      DeGrootModel reference(g, xi, /*lazy=*/true);
      Rng rng(1);
      const std::int64_t expected =
          rounds_by_hand(reference, rng, max_rounds, [&] {
            return reference.state().discrepancy() <= eps;
          });

      DeGrootModel model(g, xi, /*lazy=*/true);
      EXPECT_EQ(model.default_check_interval(), 1);
      ConvergenceOptions options;
      options.epsilon = eps;
      options.max_steps = max_rounds;
      options.check_interval = 0;
      const ConvergenceResult res = run_until_converged(model, rng, options);
      EXPECT_EQ(res.steps, expected);
      EXPECT_EQ(res.converged, reference.state().discrepancy() <= eps);
      EXPECT_EQ(model.state().values(), reference.state().values());
    }
  }
}

TEST(StopRule, RunUntilConvergedChecksFriedkinJohnsenEveryRound) {
  const Graph g = gen::lollipop(5, 3);
  Rng init_rng(9);
  const auto s = initial::uniform(init_rng, g.node_count(), 0.0, 1.0);
  for (const double eps : {1e-4, 1e-12}) {
    SCOPED_TRACE("eps=" + std::to_string(eps));
    FriedkinJohnsenModel reference(g, s, 0.7);
    Rng rng(1);
    const std::int64_t expected =
        rounds_by_hand(reference, rng, 100000, [&] {
          return reference.distance_to_equilibrium() <= eps;
        });
    ASSERT_LT(expected, 100000);

    FriedkinJohnsenModel model(g, s, 0.7);
    EXPECT_EQ(model.default_check_interval(), 1);
    ConvergenceOptions options;
    options.epsilon = eps;
    options.check_interval = 0;
    const ConvergenceResult res = run_until_converged(model, rng, options);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.steps, expected);
    EXPECT_EQ(model.state().values(), reference.state().values());
  }
}

/// Runs `kv` through the engine into a MemorySink and returns the
/// values of column `name`, one per row.
std::vector<std::string> column_of(
    const std::map<std::string, std::string>& kv, const std::string& name) {
  engine::ExperimentSpec spec = engine::parse_spec(kv);
  spec.print_table = false;
  engine::MemorySink rows;
  engine::run_experiment(spec, {&rows});
  const std::vector<std::string>& columns = rows.columns();
  const auto col = static_cast<std::size_t>(
      std::find(columns.begin(), columns.end(), name) - columns.begin());
  EXPECT_LT(col, columns.size()) << "no column '" << name << "'";
  std::vector<std::string> cells;
  for (const std::vector<std::string>& row : rows.rows()) {
    cells.push_back(col < row.size() ? row[col] : "");
  }
  return cells;
}

TEST(StopRule, CrossModelBaselinesConvergeAtDefaultMaxSteps) {
  // FJ keeps persistent disagreement, so a phi stop would never fire;
  // its own rule stops it within a few dozen rounds.  The odd cycle is
  // not bipartite, so non-lazy DeGroot converges too.
  const std::vector<std::string> diverged = column_of(
      {{"scenario", "cross_model"}, {"graph", "cycle"}, {"n", "15"},
       {"replicas", "2"}, {"init", "gaussian"}, {"eps", "1e-8"},
       {"sweep", "model:degroot,friedkin_johnsen"}},
      "diverged");
  EXPECT_EQ(diverged, (std::vector<std::string>{"0", "0"}));
}

TEST(StopRule, CrossModelTEpsEqualsTheBaselineScenarioRounds) {
  const std::map<std::string, std::string> base = {
      {"graph", "cycle"}, {"n", "16"}, {"replicas", "2"}, {"seed", "3"},
      {"init", "gaussian"}, {"eps", "1e-8"}};
  const auto with = [&base](std::map<std::string, std::string> extra) {
    extra.insert(base.begin(), base.end());
    return extra;
  };
  const std::vector<std::string> degroot_rounds =
      column_of(with({{"scenario", "degroot"}}), "rounds");
  const std::vector<std::string> degroot_t = column_of(
      with({{"scenario", "cross_model"}, {"model", "degroot"},
            {"lazy", "true"}}),
      "T_eps");
  ASSERT_EQ(degroot_rounds.size(), 1u);
  ASSERT_EQ(degroot_t.size(), 1u);
  EXPECT_GT(std::stod(degroot_rounds[0]), 0.0);
  EXPECT_EQ(std::stod(degroot_t[0]), std::stod(degroot_rounds[0]));

  const std::vector<std::string> fj_rounds =
      column_of(with({{"scenario", "friedkin_johnsen"}}), "rounds");
  const std::vector<std::string> fj_t = column_of(
      with({{"scenario", "cross_model"}, {"model", "friedkin_johnsen"}}),
      "T_eps");
  ASSERT_EQ(fj_rounds.size(), 1u);
  ASSERT_EQ(fj_t.size(), 1u);
  EXPECT_GT(std::stod(fj_rounds[0]), 0.0);
  EXPECT_EQ(std::stod(fj_t[0]), std::stod(fj_rounds[0]));
}

TEST(Baselines, ParameterValidation) {
  const Graph g = gen::cycle(5);
  EXPECT_THROW(DeGrootModel(g, std::vector<double>(3, 0.0), false),
               ContractError);
  EXPECT_THROW(FriedkinJohnsenModel(g, std::vector<double>(5, 0.0), 1.0),
               ContractError);
}

}  // namespace
}  // namespace opindyn
