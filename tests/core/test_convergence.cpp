// run_until_converged contracts plus replica-level Monte-Carlo checks of
// E[F] / Var(F) against the paper's martingale and Prop. 5.8 values.
// Replica batches run on the engine's CellScheduler via the shared
// tests/replica_harness.h helper (the retired core/montecarlo harness
// used the same streams, so the statistical expectations are
// unchanged).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/core/convergence.h"
#include "src/core/initial_values.h"
#include "src/core/lane_kernel.h"
#include "src/core/model.h"
#include "src/core/theory.h"
#include "src/graph/generators.h"
#include "src/spectral/spectra.h"
#include "src/support/assert.h"
#include "src/support/cell_scheduler.h"
#include "src/support/metrics.h"
#include "tests/replica_harness.h"

namespace opindyn {
namespace {

using test_support::ReplicaSummary;
using test_support::run_replicas;

TEST(Convergence, ReachesEpsilonAndReportsCommonValue) {
  const Graph g = gen::complete(16);
  Rng init_rng(1);
  auto xi = initial::uniform(init_rng, 16, -1.0, 1.0);
  NodeModelParams params;
  params.alpha = 0.5;
  params.k = 1;
  NodeModel model(g, xi, params);
  Rng rng(2);
  ConvergenceOptions options;
  options.epsilon = 1e-16;
  const ConvergenceResult result = run_until_converged(model, rng, options);
  ASSERT_TRUE(result.converged);
  EXPECT_LE(result.final_phi, options.epsilon);
  EXPECT_GT(result.steps, 0);
  // All node values agree with the reported F to ~sqrt(eps/pi_min).
  for (NodeId u = 0; u < 16; ++u) {
    EXPECT_NEAR(model.state().value(u), result.final_value, 1e-6);
  }
}

TEST(Convergence, AlreadyConvergedStopsImmediately) {
  const Graph g = gen::cycle(8);
  NodeModelParams params;
  NodeModel model(g, initial::constant(8, 3.0), params);
  Rng rng(3);
  ConvergenceOptions options;
  options.epsilon = 1e-12;
  const ConvergenceResult result = run_until_converged(model, rng, options);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.steps, 0);
  EXPECT_DOUBLE_EQ(result.final_value, 3.0);
}

TEST(Convergence, MaxStepsCapsWork) {
  const Graph g = gen::cycle(64);
  Rng init_rng(4);
  NodeModelParams params;
  NodeModel model(g, initial::rademacher(init_rng, 64), params);
  Rng rng(5);
  ConvergenceOptions options;
  options.epsilon = 1e-30;  // unreachable
  options.max_steps = 1000;
  const ConvergenceResult result = run_until_converged(model, rng, options);
  EXPECT_FALSE(result.converged);
  EXPECT_LE(result.steps, 1000 + 64);
}

TEST(Convergence, PlainPotentialModeUsesPhiV) {
  const Graph g = gen::star(10);
  Rng init_rng(6);
  EdgeModelParams params;
  params.alpha = 0.5;
  EdgeModel model(g, initial::uniform(init_rng, 10, 0.0, 1.0), params);
  Rng rng(7);
  ConvergenceOptions options;
  options.epsilon = 1e-14;
  options.use_plain_potential = true;
  const ConvergenceResult result = run_until_converged(model, rng, options);
  ASSERT_TRUE(result.converged);
  EXPECT_LE(model.state().phi_plain_exact(), options.epsilon);
}

// The group loop: processes run together, each checked at every
// interval and leaving the group when it converges, must give every
// process the result, state and rng end state of its own run -- with
// lanes on and off -- and report the same counter totals.
struct GroupOutcome {
  std::vector<ConvergenceResult> results;
  std::vector<Rng> rngs;
  std::vector<std::vector<double>> values;
  std::vector<std::int64_t> exact_checks;
  std::map<std::string, std::int64_t> counters;
};

GroupOutcome run_group(const Graph& graph, const ModelConfig& config,
                       const std::vector<double>& xi, int size,
                       const ConvergenceOptions& options, bool together) {
  std::vector<std::unique_ptr<AveragingProcess>> owned;
  std::vector<AveragingProcess*> group;
  GroupOutcome out;
  for (int l = 0; l < size; ++l) {
    owned.push_back(make_process(graph, config, xi));
    group.push_back(owned.back().get());
    out.rngs.push_back(Rng::fork(31, static_cast<std::uint64_t>(l)));
  }
  std::vector<Rng*> rngs;
  for (Rng& rng : out.rngs) {
    rngs.push_back(&rng);
  }
  out.results.resize(group.size());
  MetricsRegistry registry;
  {
    const MetricsScope scope(&registry, "group");
    if (together) {
      run_until_converged(group, rngs, options, out.results);
    } else {
      for (std::size_t i = 0; i < group.size(); ++i) {
        out.results[i] = run_until_converged(*group[i], *rngs[i], options);
      }
    }
  }
  for (const AveragingProcess* process : group) {
    out.values.push_back(process->state().values());
    out.exact_checks.push_back(process->exact_checks());
  }
  out.counters = registry.fold().counters;
  return out;
}

void expect_same_runs(const GroupOutcome& group, const GroupOutcome& alone) {
  ASSERT_EQ(group.results.size(), alone.results.size());
  for (std::size_t i = 0; i < alone.results.size(); ++i) {
    SCOPED_TRACE("process " + std::to_string(i));
    EXPECT_EQ(group.results[i].steps, alone.results[i].steps);
    EXPECT_EQ(group.results[i].converged, alone.results[i].converged);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(group.results[i].final_phi),
              std::bit_cast<std::uint64_t>(alone.results[i].final_phi));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(group.results[i].final_value),
              std::bit_cast<std::uint64_t>(alone.results[i].final_value));
    EXPECT_EQ(group.rngs[i], alone.rngs[i]);
    EXPECT_EQ(group.values[i], alone.values[i]);
    EXPECT_EQ(group.exact_checks[i], alone.exact_checks[i]);
  }
  for (const char* counter :
       {"engine.steps", "engine.checks", "engine.exact_checks"}) {
    EXPECT_EQ(group.counters.at(counter), alone.counters.at(counter))
        << counter;
  }
  EXPECT_EQ(group.counters.count("engine.unconverged_runs"),
            alone.counters.count("engine.unconverged_runs"));
}

TEST(ConvergenceGroup, EveryProcessGetsItsOwnRunWithLanesOnAndOff) {
  Rng graph_rng(71);
  const Graph regular = gen::random_regular(graph_rng, 48, 4);
  const Graph irregular = gen::preferential_attachment(graph_rng, 48, 2);
  Rng init_rng(72);
  const auto xi = initial::gaussian(init_rng, 48, 0.0, 1.0);
  ModelConfig node;
  ModelConfig edge;
  edge.kind = ModelKind::edge;
  ModelConfig node_k2;
  node_k2.k = 2;
  ModelConfig voter;
  voter.kind = ModelKind::voter;
  struct Case {
    const char* name;
    const Graph* graph;
    ModelConfig config;
  };
  const Case cases[] = {{"node", &regular, node},
                        {"edge", &regular, edge},
                        {"node k=2", &regular, node_k2},
                        {"edge pref_attach", &irregular, edge},
                        {"voter", &regular, voter}};
  ConvergenceOptions options;
  options.epsilon = 1e-8;
  for (const Case& c : cases) {
    for (const int size : {1, 3, 4, 8}) {
      for (const bool lanes_on : {true, false}) {
        SCOPED_TRACE(std::string(c.name) + " size=" + std::to_string(size) +
                     " lanes=" + std::to_string(lanes_on));
        std::optional<lanes::ScopedDisable> off;
        if (!lanes_on) {
          off.emplace();
        }
        const GroupOutcome alone =
            run_group(*c.graph, c.config, xi, size, options, false);
        const GroupOutcome group =
            run_group(*c.graph, c.config, xi, size, options, true);
        expect_same_runs(group, alone);
        // Lanes converge at different checks: the group shrank.
        std::set<std::int64_t> steps;
        for (const ConvergenceResult& result : alone.results) {
          steps.insert(result.steps);
        }
        EXPECT_EQ(steps.size() > 1, size > 1);
        const bool lockstep = lanes::enabled() && size >= lanes::kMinLanes &&
                              lane_shape(c.config, *c.graph).rule !=
                                  LaneShape::Rule::none;
        EXPECT_EQ(group.counters.count("engine.lane_steps"),
                  lockstep ? 1U : 0U);
        EXPECT_EQ(alone.counters.count("engine.lane_steps"), 0U);
      }
    }
  }
}

TEST(ConvergenceGroup, MaxStepsStopsEveryLaneAtTheCap) {
  Rng graph_rng(73);
  const Graph graph = gen::random_regular(graph_rng, 64, 4);
  Rng init_rng(74);
  const auto xi = initial::gaussian(init_rng, 64, 0.0, 1.0);
  ModelConfig edge;
  edge.kind = ModelKind::edge;
  ConvergenceOptions options;
  options.epsilon = 1e-12;
  options.max_steps = 1000;  // not a multiple of the 16-step interval
  const GroupOutcome alone = run_group(graph, edge, xi, 8, options, false);
  const GroupOutcome group = run_group(graph, edge, xi, 8, options, true);
  expect_same_runs(group, alone);
  for (const ConvergenceResult& result : group.results) {
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.steps, 1000);
  }
  EXPECT_EQ(group.counters.at("engine.unconverged_runs"), 8);
  if (lanes::enabled()) {
    EXPECT_EQ(group.counters.at("engine.lane_steps"), 8000);
  }
}

TEST(ConvergenceGroup, ProcessesMustStartAtOneTime) {
  const Graph graph = gen::cycle(16);
  const std::vector<double> xi(16, 1.0);
  NodeModel a(graph, xi, NodeModelParams{});
  NodeModel b(graph, xi, NodeModelParams{});
  Rng rng_a(1);
  Rng rng_b(2);
  b.step(rng_b);
  AveragingProcess* const group[] = {&a, &b};
  Rng* const rngs[] = {&rng_a, &rng_b};
  std::vector<ConvergenceResult> results(2);
  EXPECT_THROW(
      run_until_converged(group, rngs, ConvergenceOptions{}, results),
      ContractError);
}

// The fixed-horizon form of the group loop: every process must end where
// step_burst alone takes it to the horizon (values, rng state, time), and
// the checkpoint must see the (t, M, phi) that stepping alone to t = 0,
// stride, ... and the horizon gives -- in groups of 1 to 8, lanes on and
// off.  The reference steps each process by itself, so a loop that drops
// the last partial burst or shows a checkpoint before its burst fails.
struct HorizonOutcome {
  std::vector<Rng> rngs;
  std::vector<std::vector<double>> values;
  std::vector<std::int64_t> times;
  // Per process, one (t, bits of M, bits of phi) per checkpoint.
  std::vector<std::vector<std::array<std::uint64_t, 3>>> seen;
  std::map<std::string, std::int64_t> counters;
};

std::array<std::uint64_t, 3> checkpoint_of(const AveragingProcess& process) {
  return {static_cast<std::uint64_t>(process.time()),
          std::bit_cast<std::uint64_t>(process.state().weighted_average()),
          std::bit_cast<std::uint64_t>(process.state().phi_exact())};
}

HorizonOutcome run_horizon(const Graph& graph, const ModelConfig& config,
                           const std::vector<double>& xi, int size,
                           std::int64_t horizon, std::int64_t stride,
                           bool together) {
  std::vector<std::unique_ptr<AveragingProcess>> owned;
  std::vector<AveragingProcess*> group;
  HorizonOutcome out;
  for (int l = 0; l < size; ++l) {
    owned.push_back(make_process(graph, config, xi));
    group.push_back(owned.back().get());
    out.rngs.push_back(Rng::fork(41, static_cast<std::uint64_t>(l)));
  }
  std::vector<Rng*> rngs;
  for (Rng& rng : out.rngs) {
    rngs.push_back(&rng);
  }
  out.seen.resize(group.size());
  MetricsRegistry registry;
  if (together) {
    const MetricsScope scope(&registry, "group");
    run_fixed_horizon(group, rngs,
                      {.max_steps = horizon, .check_interval = stride},
                      [&](std::size_t i) {
                        out.seen[i].push_back(checkpoint_of(*group[i]));
                      });
  } else {
    for (std::size_t i = 0; i < group.size(); ++i) {
      for (std::int64_t t = 0;; t += stride) {
        group[i]->step_burst(*rngs[i], std::min(t, horizon) - group[i]->time());
        out.seen[i].push_back(checkpoint_of(*group[i]));
        if (t >= horizon) {
          break;
        }
      }
    }
  }
  for (const AveragingProcess* process : group) {
    out.values.push_back(process->state().values());
    out.times.push_back(process->time());
    EXPECT_EQ(process->exact_checks(), 0);
  }
  out.counters = registry.fold().counters;
  return out;
}

std::int64_t counter(const HorizonOutcome& outcome, const char* name) {
  const auto it = outcome.counters.find(name);
  return it == outcome.counters.end() ? 0 : it->second;
}

void expect_horizon_runs(const Graph& graph, const ModelConfig& config,
                         const std::vector<double>& xi, int size,
                         std::int64_t horizon, std::int64_t stride) {
  const HorizonOutcome alone =
      run_horizon(graph, config, xi, size, horizon, stride, false);
  const HorizonOutcome group =
      run_horizon(graph, config, xi, size, horizon, stride, true);
  for (std::size_t i = 0; i < alone.rngs.size(); ++i) {
    SCOPED_TRACE("process " + std::to_string(i));
    EXPECT_EQ(group.times[i], horizon);
    EXPECT_EQ(group.times[i], alone.times[i]);
    EXPECT_EQ(group.rngs[i], alone.rngs[i]);
    EXPECT_EQ(group.values[i], alone.values[i]);
    EXPECT_EQ(group.seen[i], alone.seen[i]);
  }
  EXPECT_EQ(counter(group, "engine.steps"), size * horizon);
  EXPECT_EQ(counter(group, "engine.checks"), 0);
  EXPECT_EQ(counter(group, "engine.exact_checks"), 0);
  EXPECT_EQ(counter(group, "engine.unconverged_runs"), 0);
  const bool lockstep = lanes::enabled() && size >= lanes::kMinLanes &&
                        lane_shape(config, graph).rule != LaneShape::Rule::none;
  EXPECT_EQ(counter(group, "engine.lane_steps"), lockstep ? size * horizon : 0);
}

TEST(ConvergenceGroup, HorizonRunsMatchStepBurstAtEveryCheckpoint) {
  Rng graph_rng(75);
  const Graph regular = gen::random_regular(graph_rng, 48, 4);
  const Graph irregular = gen::preferential_attachment(graph_rng, 48, 2);
  Rng init_rng(76);
  const auto xi = initial::gaussian(init_rng, 48, 0.0, 1.0);
  ModelConfig node;
  ModelConfig edge;
  edge.kind = ModelKind::edge;
  ModelConfig lazy;
  lazy.lazy = true;
  ModelConfig hk;
  hk.kind = ModelKind::hegselmann_krause;
  hk.confidence = 0.5;
  struct Case {
    const char* name;
    const Graph* graph;
    ModelConfig config;
  };
  const Case cases[] = {{"node", &regular, node},
                        {"edge", &regular, edge},
                        {"node lazy", &regular, lazy},
                        {"edge pref_attach", &irregular, edge},
                        {"hegselmann_krause", &regular, hk}};
  // (horizon, stride): a partial last burst, horizon 0, a stride past the
  // horizon, and a horizon the stride divides.
  const std::int64_t runs[][2] = {{1000, 16}, {0, 16}, {10, 64}, {96, 12}};
  for (const Case& c : cases) {
    for (int size = 1; size <= 8; ++size) {
      for (const auto& [horizon, stride] : runs) {
        for (const bool lanes_on : {true, false}) {
          SCOPED_TRACE(std::string(c.name) + " size=" + std::to_string(size) +
                       " horizon=" + std::to_string(horizon) + " stride=" +
                       std::to_string(stride) +
                       " lanes=" + std::to_string(lanes_on));
          std::optional<lanes::ScopedDisable> off;
          if (!lanes_on) {
            off.emplace();
          }
          expect_horizon_runs(*c.graph, c.config, xi, size, horizon, stride);
        }
      }
    }
  }
}

TEST(ConvergenceGroup, HorizonBurstsStraddlingTheRecompute) {
  // Bursts of 300001 steps cross the 2^20-update rebuild of the running
  // sums inside the fourth, and the horizon cuts the fifth short.  A
  // cycle of 1001 nodes is still far from consensus at 1.2M steps.
  const Graph graph = gen::cycle(1001);
  Rng init_rng(77);
  const auto xi = initial::gaussian(init_rng, 1001, 0.0, 1.0);
  ModelConfig node;
  ModelConfig edge;
  edge.kind = ModelKind::edge;
  for (const ModelConfig& config : {node, edge}) {
    for (const int size : {5, 8}) {
      for (const bool lanes_on : {true, false}) {
        SCOPED_TRACE(std::string(config.kind == ModelKind::node ? "node"
                                                                 : "edge") +
                     " size=" + std::to_string(size) +
                     " lanes=" + std::to_string(lanes_on));
        std::optional<lanes::ScopedDisable> off;
        if (!lanes_on) {
          off.emplace();
        }
        expect_horizon_runs(graph, config, xi, size, 1'200'003, 300'001);
      }
    }
  }
}

TEST(MonteCarlo, MeanOfFMatchesMartingaleExpectation) {
  // E[F] = M(0) for the NodeModel (Lemma 4.1): run on an irregular graph
  // with xi(0) chosen so Avg(0) != M(0), and check the MC mean picks M(0).
  const Graph g = gen::star(8);  // hub 0
  std::vector<double> xi(8, 0.0);
  xi[0] = 7.0;  // Avg(0) = 7/8; M(0) = (7*7)/(2*7) = 3.5
  const double m0 = 7.0 * 7.0 / 14.0;

  ModelConfig config;
  config.kind = ModelKind::node;
  config.alpha = 0.5;
  config.k = 1;
  ConvergenceOptions convergence;
  convergence.epsilon = 1e-14;
  const ReplicaSummary result =
      run_replicas(g, config, xi, 4000, 11, convergence);
  EXPECT_EQ(result.value.count(), 4000);
  EXPECT_EQ(result.diverged, 0);
  EXPECT_NEAR(result.value.mean(), m0,
              4.0 * result.value.mean_ci_halfwidth());
  // And NOT the plain average.
  EXPECT_GT(std::abs(result.value.mean() - 7.0 / 8.0), 0.5);
}

TEST(MonteCarlo, EdgeModelMeanOfFIsPlainAverageEvenIrregular) {
  const Graph g = gen::star(8);
  std::vector<double> xi(8, 0.0);
  xi[0] = 7.0;  // Avg(0) = 7/8
  ModelConfig config;
  config.kind = ModelKind::edge;
  config.alpha = 0.5;
  ConvergenceOptions convergence;
  convergence.epsilon = 1e-14;
  const ReplicaSummary result =
      run_replicas(g, config, xi, 4000, 13, convergence);
  EXPECT_NEAR(result.value.mean(), 7.0 / 8.0,
              4.0 * result.value.mean_ci_halfwidth());
}

TEST(MonteCarlo, DeterministicAcrossThreadCounts) {
  const Graph g = gen::cycle(12);
  Rng init_rng(8);
  auto xi = initial::rademacher(init_rng, 12);
  initial::center_plain(xi);
  ModelConfig config;
  config.alpha = 0.5;
  config.k = 1;
  ConvergenceOptions convergence;
  convergence.epsilon = 1e-12;
  const ReplicaSummary serial =
      run_replicas(g, config, xi, 64, 17, convergence, 1);
  const ReplicaSummary parallel =
      run_replicas(g, config, xi, 64, 17, convergence, 4);
  EXPECT_EQ(serial.value.count(), parallel.value.count());
  EXPECT_NEAR(serial.value.mean(), parallel.value.mean(), 1e-12);
  EXPECT_NEAR(serial.value.variance(), parallel.value.variance(), 1e-12);
  EXPECT_NEAR(serial.steps.mean(), parallel.steps.mean(), 1e-9);
}

TEST(MonteCarlo, VarianceOfFMatchesProp58OnCycle) {
  // The flagship quantitative check: MC Var(F) against the exact Prop 5.8
  // value on a small cycle.
  const Graph g = gen::cycle(8);
  Rng init_rng(9);
  auto xi = initial::rademacher(init_rng, 8);
  initial::center_plain(xi);
  const double predicted = theory::variance_exact(g, 0.5, 1, xi);

  ModelConfig config;
  config.alpha = 0.5;
  config.k = 1;
  ConvergenceOptions convergence;
  convergence.epsilon = 1e-13;
  const ReplicaSummary result =
      run_replicas(g, config, xi, 20000, 19, convergence);
  const double measured = result.value.population_variance();
  EXPECT_NEAR(measured, predicted,
              4.0 * result.value.variance_ci_halfwidth() + 1e-4);
}

TEST(MonteCarlo, TrajectoryTracksMartingaleAndPhiDecay) {
  const Graph g = gen::complete(12);
  Rng init_rng(10);
  auto xi = initial::gaussian(init_rng, 12, 0.0, 1.0);
  initial::center_plain(xi);
  ModelConfig config;
  config.alpha = 0.5;
  config.k = 2;
  // Metric layout per replica: (M(t), phi(t)) per checkpoint.
  const std::vector<std::int64_t> checkpoints{0, 50, 200, 1000, 4000};
  CellScheduler scheduler;
  const std::vector<RunningStats> stats = scheduler.run(
      500, 21, checkpoints.size() * 2,
      [&](std::int64_t, Rng& rng, std::span<double> out) {
        auto process = make_process(g, config, xi);
        for (std::size_t c = 0; c < checkpoints.size(); ++c) {
          while (process->time() < checkpoints[c]) {
            process->step(rng);
          }
          out[2 * c] = process->state().weighted_average();
          out[2 * c + 1] = process->state().phi_exact();
        }
      });
  // M(t) is a martingale: mean stays at M(0) = Avg(0) = 0.
  for (std::size_t c = 0; c < checkpoints.size(); ++c) {
    EXPECT_NEAR(stats[2 * c].mean(), 0.0,
                4.0 * stats[2 * c].mean_ci_halfwidth() + 1e-3);
  }
  // Var(M(t)) is non-decreasing in t (stated after Prop. 5.8); allow
  // sampling noise at the later checkpoint's CI scale.
  for (std::size_t c = 1; c < checkpoints.size(); ++c) {
    const double slack =
        3.0 * stats[2 * c].variance_ci_halfwidth() + 1e-4;
    EXPECT_GE(stats[2 * c].population_variance() + slack,
              stats[2 * (c - 1)].population_variance());
  }
  // phi decays.
  EXPECT_LT(stats[2 * (checkpoints.size() - 1) + 1].mean(),
            stats[1].mean() * 1e-2);
}

TEST(MonteCarlo, SchedulerRejectsDegenerateBatches) {
  CellScheduler scheduler(1);
  const auto noop = [](std::int64_t, Rng&, std::span<double>) {};
  EXPECT_THROW(scheduler.run(0, 1, 1, noop), ContractError);
  EXPECT_THROW(scheduler.run(4, 1, 0, noop), ContractError);
}

}  // namespace
}  // namespace opindyn
