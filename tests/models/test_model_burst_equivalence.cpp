// The step_burst contract for the generalized model family: for every
// ModelKind constructible through make_process, step_burst(n) must
// consume exactly the rng draw sequence of n single step() calls and
// leave bit-identical state -- the same ISSUE-5 contract the node/edge
// kernels are held to in tests/core/test_step_burst.cpp, now asserted
// across voter, gossip, degroot, friedkin_johnsen, weighted_median and
// hegselmann_krause.  Also covers the model-layer validation: the knob
// matrix rejections and the did-you-mean parse diagnostics.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/initial_values.h"
#include "src/core/model.h"
#include "src/core/process.h"
#include "src/graph/generators.h"
#include "src/support/rng.h"

namespace opindyn {
namespace {

// Burst split with a zero-length burst, tiny bursts, and one large
// remainder -- exercises every chunking pattern a harness produces.
std::vector<std::int64_t> harness_bursts(std::int64_t total) {
  return {0, 1, 7, 100, total - 108};
}

void expect_bit_identical(const AveragingProcess& single,
                          const AveragingProcess& burst) {
  ASSERT_EQ(single.time(), burst.time());
  const std::vector<double>& a = single.state().values();
  const std::vector<double>& b = burst.state().values();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t u = 0; u < a.size(); ++u) {
    // Bitwise equality, not EXPECT_NEAR: every kind's kernel performs
    // the exact arithmetic of its apply_update.
    ASSERT_EQ(a[u], b[u]) << "value diverged at node " << u;
  }
  EXPECT_EQ(single.state().phi(), burst.state().phi());
  EXPECT_EQ(single.state().phi_plain(), burst.state().phi_plain());
  EXPECT_EQ(single.state().weighted_average(),
            burst.state().weighted_average());
  EXPECT_EQ(single.state().l2_squared(), burst.state().l2_squared());
}

/// Runs the single-step / split-burst pair for one config on one graph
/// and asserts state bit-identity plus rng stream lockstep.
void check_burst_equivalence(const Graph& g, const ModelConfig& config,
                             const std::vector<double>& xi,
                             std::uint64_t seed,
                             const std::vector<std::int64_t>& bursts) {
  auto single = make_process(g, config, xi);
  auto burst = make_process(g, config, xi);
  Rng rng_single(seed);
  Rng rng_burst(seed);
  for (const std::int64_t steps : bursts) {
    for (std::int64_t i = 0; i < steps; ++i) {
      single->step(rng_single);
    }
    burst->step_burst(rng_burst, steps);
  }
  expect_bit_identical(*single, *burst);
  // Same number of raw draws consumed: the streams stay in lockstep
  // after the runs.
  EXPECT_EQ(rng_single(), rng_burst());
}

void check_burst_equivalence(const Graph& g, const ModelConfig& config,
                             const std::vector<double>& xi,
                             std::uint64_t seed, std::int64_t total = 600) {
  check_burst_equivalence(g, config, xi, seed, harness_bursts(total));
}

ModelConfig base_config(ModelKind kind) {
  ModelConfig config;
  config.kind = kind;
  return config;
}

TEST(ModelBurst, VoterMatchesSingleSteps) {
  Rng graph_rng(101);
  const Graph regular = gen::random_regular(graph_rng, 24, 5);
  const Graph irregular = gen::lollipop(8, 8);
  // Distinct starting opinions keep the id bookkeeping busy for the
  // whole run instead of collapsing to consensus immediately.
  std::vector<double> xi(24);
  for (std::size_t u = 0; u < xi.size(); ++u) {
    xi[u] = static_cast<double>(u % 7);
  }
  std::vector<double> xi_irregular(xi.begin(),
                                   xi.begin() + irregular.node_count());
  for (const bool lazy : {false, true}) {
    SCOPED_TRACE("lazy=" + std::to_string(lazy));
    ModelConfig config = base_config(ModelKind::voter);
    config.lazy = lazy;
    check_burst_equivalence(regular, config, xi, 9001);
    check_burst_equivalence(irregular, config, xi_irregular, 9002);
  }
}

TEST(ModelBurst, GossipMatchesSingleSteps) {
  Rng init_rng(7);
  const Graph regular = gen::cycle(20);
  const Graph irregular = gen::lollipop(7, 7);
  const auto xi = initial::gaussian(init_rng, 20, 0.0, 1.0);
  std::vector<double> xi_irregular(xi.begin(),
                                   xi.begin() + irregular.node_count());
  for (const bool lazy : {false, true}) {
    SCOPED_TRACE("lazy=" + std::to_string(lazy));
    ModelConfig config = base_config(ModelKind::gossip);
    config.lazy = lazy;
    check_burst_equivalence(regular, config, xi, 31);
    check_burst_equivalence(irregular, config, xi_irregular, 32);
  }
}

TEST(ModelBurst, DeGrootMatchesSingleSteps) {
  Rng init_rng(11);
  const Graph g = gen::petersen();
  const auto xi = initial::uniform(init_rng, g.node_count(), -2.0, 2.0);
  for (const bool lazy : {false, true}) {
    SCOPED_TRACE("lazy=" + std::to_string(lazy));
    ModelConfig config = base_config(ModelKind::degroot);
    config.lazy = lazy;
    // Deterministic rounds: fewer steps suffice, and the rng must not
    // be touched at all.
    check_burst_equivalence(g, config, xi, 55, 200);
  }
}

TEST(ModelBurst, FriedkinJohnsenMatchesSingleSteps) {
  Rng init_rng(13);
  const Graph g = gen::lollipop(6, 5);
  const auto xi = initial::uniform(init_rng, g.node_count(), 0.0, 1.0);
  ModelConfig config = base_config(ModelKind::friedkin_johnsen);
  config.alpha = 0.7;
  check_burst_equivalence(g, config, xi, 77, 200);
}

TEST(ModelBurst, WeightedMedianMatchesSingleStepsForEveryVariant) {
  Rng graph_rng(103);
  // Degree 8 makes every specialised k legal without replacement; at
  // k = 8 the subset is the whole row, Floyd's hardest duplicate case.
  const Graph circulant = gen::circulant(24, {1, 3, 7, 10});
  ASSERT_EQ(circulant.min_degree(), 8);
  struct Case {
    Graph graph;
    std::vector<std::int64_t> ks;
  };
  // k = 1, 2, 3, 4 and 8 hit the specialised kernels, 5 the generic
  // loop.
  const std::vector<Case> cases = {
      {gen::random_regular(graph_rng, 24, 5), {1, 3, 5}},
      {circulant, {1, 2, 3, 4, 5, 8}},
  };
  Rng init_rng(17);
  const auto xi = initial::gaussian(init_rng, 24, 0.0, 1.0);
  for (const Case& c : cases) {
    for (const bool lazy : {false, true}) {
      for (const SamplingMode sampling :
           {SamplingMode::without_replacement,
            SamplingMode::with_replacement}) {
        for (const std::int64_t k : c.ks) {
          SCOPED_TRACE("degree=" + std::to_string(c.graph.min_degree()) +
                       " lazy=" + std::to_string(lazy) + " k=" +
                       std::to_string(k) + " with_replacement=" +
                       std::to_string(sampling ==
                                      SamplingMode::with_replacement));
          ModelConfig config = base_config(ModelKind::weighted_median);
          config.k = k;
          config.lazy = lazy;
          config.sampling = sampling;
          check_burst_equivalence(c.graph, config, xi, 8101);
        }
      }
    }
  }
}

TEST(ModelBurst, WeightedMedianIrregularGraphMatchesSingleSteps) {
  Rng graph_rng(23);
  const Graph g = gen::preferential_attachment(graph_rng, 40, 2);
  ASSERT_FALSE(g.is_regular());
  Rng init_rng(19);
  const auto xi = initial::gaussian(init_rng, g.node_count(), 0.0, 1.0);
  for (const std::int64_t k : {std::int64_t{1}, std::int64_t{2}}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    ModelConfig config = base_config(ModelKind::weighted_median);
    config.k = k;
    check_burst_equivalence(g, config, xi, 607, 601);
  }
}

// A non-lazy chunk whose countdown() is no larger than its length
// straddles the 2^20 recompute of the running sums and accounts per
// update with advance_one().  The node and median rules share that
// branch; a run of ~1.2M steps crosses the threshold once, with one
// burst ending 30 updates short of it so that the next bursts split
// the straddling window.
TEST(ModelBurst, StraddlingChunksMatchSingleSteps) {
  constexpr std::int64_t kRecompute = std::int64_t{1} << 20;
  const std::vector<std::int64_t> bursts = {
      1, 7, kRecompute - 38, 7, 100, 1'200'000 - kRecompute - 77};
  Rng graph_rng(37);
  const Graph regular = gen::random_regular(graph_rng, 20, 4);
  const Graph irregular = gen::preferential_attachment(graph_rng, 30, 3);
  ASSERT_FALSE(irregular.is_regular());
  ASSERT_GE(irregular.min_degree(), 3);
  Rng init_rng(43);
  const auto xi = initial::gaussian(init_rng, 30, 0.0, 1.0);
  for (const Graph* g : {&regular, &irregular}) {
    const std::vector<double> xi_g(xi.begin(), xi.begin() + g->node_count());
    for (const ModelKind kind :
         {ModelKind::node, ModelKind::weighted_median}) {
      for (const SamplingMode sampling :
           {SamplingMode::without_replacement,
            SamplingMode::with_replacement}) {
        SCOPED_TRACE("regular=" + std::to_string(g->is_regular()) +
                     " kind=" + model_kind_name(kind) +
                     " with_replacement=" +
                     std::to_string(sampling ==
                                    SamplingMode::with_replacement));
        ModelConfig config = base_config(kind);
        config.k = kind == ModelKind::node ? 2 : 3;
        config.sampling = sampling;
        check_burst_equivalence(*g, config, xi_g, 1201, bursts);
      }
    }
  }
}

TEST(ModelBurst, HegselmannKrauseMatchesSingleSteps) {
  Rng graph_rng(29);
  const Graph regular = gen::random_regular(graph_rng, 24, 4);
  const Graph irregular = gen::preferential_attachment(graph_rng, 24, 2);
  Rng init_rng(21);
  const auto xi = initial::uniform(init_rng, 24, -1.0, 1.0);
  for (const bool lazy : {false, true}) {
    for (const double confidence : {0.05, 0.4}) {
      SCOPED_TRACE("lazy=" + std::to_string(lazy) + " confidence=" +
                   std::to_string(confidence));
      ModelConfig config = base_config(ModelKind::hegselmann_krause);
      config.confidence = confidence;
      config.lazy = lazy;
      check_burst_equivalence(regular, config, xi, 4001);
      check_burst_equivalence(irregular, config, xi, 4002);
    }
  }
}

TEST(ModelValidation, RejectsKnobsTheKindDoesNotUse) {
  // Non-default values of unread knobs fail fast with a one-line error
  // instead of being silently ignored.
  {
    ModelConfig config = base_config(ModelKind::edge);
    config.k = 4;
    EXPECT_THROW(validate_model_config(config), std::runtime_error);
  }
  {
    ModelConfig config = base_config(ModelKind::edge);
    config.sampling = SamplingMode::with_replacement;
    EXPECT_THROW(validate_model_config(config), std::runtime_error);
  }
  {
    ModelConfig config = base_config(ModelKind::voter);
    config.alpha = 0.3;
    EXPECT_THROW(validate_model_config(config), std::runtime_error);
  }
  {
    ModelConfig config = base_config(ModelKind::weighted_median);
    config.alpha = 0.3;
    try {
      validate_model_config(config);
      FAIL() << "expected rejection";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("does not use alpha="),
                std::string::npos)
          << error.what();
    }
  }
  // hegselmann_krause requires its confidence bound.
  EXPECT_THROW(
      validate_model_config(base_config(ModelKind::hegselmann_krause)),
      std::runtime_error);
  // The defaults are legal for every other kind.
  for (const ModelKind kind :
       {ModelKind::node, ModelKind::edge, ModelKind::voter,
        ModelKind::gossip, ModelKind::degroot, ModelKind::friedkin_johnsen,
        ModelKind::weighted_median}) {
    EXPECT_NO_THROW(validate_model_config(base_config(kind)));
  }
}

TEST(ModelValidation, ConfigForKindDropsForeignKnobs) {
  ModelConfig config = base_config(ModelKind::node);
  config.alpha = 0.7;
  config.k = 4;
  config.sampling = SamplingMode::with_replacement;
  const ModelConfig voter = config_for_kind(config, ModelKind::voter);
  EXPECT_EQ(voter.kind, ModelKind::voter);
  EXPECT_NO_THROW(validate_model_config(voter));
  const ModelConfig edge = config_for_kind(config, ModelKind::edge);
  EXPECT_EQ(edge.kind, ModelKind::edge);
  EXPECT_EQ(edge.alpha, 0.7);      // edge reads alpha...
  EXPECT_EQ(edge.k, ModelConfig{}.k);  // ...but not k
  EXPECT_NO_THROW(validate_model_config(edge));
}

TEST(ModelValidation, ParseDiagnosesUnknownKindWithSuggestion) {
  for (const std::string& name : model_kind_names()) {
    EXPECT_EQ(model_kind_name(parse_model_kind(name)), name);
  }
  try {
    parse_model_kind("vooter");
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("did you mean 'voter'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("known:"), std::string::npos) << what;
  }
}

TEST(ModelValidation, EveryKindConstructsThroughMakeProcess) {
  Rng graph_rng(41);
  const Graph g = gen::random_regular(graph_rng, 16, 4);
  Rng init_rng(43);
  const auto xi = initial::gaussian(init_rng, g.node_count(), 0.0, 1.0);
  for (const ModelKind kind :
       {ModelKind::node, ModelKind::edge, ModelKind::voter,
        ModelKind::gossip, ModelKind::degroot, ModelKind::friedkin_johnsen,
        ModelKind::weighted_median, ModelKind::hegselmann_krause}) {
    ModelConfig config = base_config(kind);
    if (kind == ModelKind::hegselmann_krause) {
      config.confidence = 0.25;
    }
    auto process = make_process(g, config, xi);
    ASSERT_NE(process, nullptr) << model_kind_name(kind);
    Rng rng(47);
    process->step_burst(rng, 32);
    EXPECT_EQ(process->time(), 32) << model_kind_name(kind);
  }
}

}  // namespace
}  // namespace opindyn
