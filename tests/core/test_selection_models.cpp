#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "src/core/edge_model.h"
#include "src/core/node_model.h"
#include "src/core/selection.h"
#include "src/graph/generators.h"
#include "src/support/assert.h"

namespace opindyn {
namespace {

TEST(SelectionEnumeration, NodeSelectionsSumToOne) {
  const Graph g = gen::petersen();  // 3-regular
  for (const std::int64_t k : {1, 2, 3}) {
    const auto selections = enumerate_node_selections(g, k);
    double total = 0.0;
    for (const auto& ws : selections) {
      EXPECT_EQ(static_cast<std::int64_t>(ws.selection.sample.size()), k);
      total += ws.probability;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(SelectionEnumeration, CountsMatchBinomials) {
  const Graph g = gen::complete(5);  // every node has degree 4
  EXPECT_EQ(enumerate_node_selections(g, 2).size(), 5u * 6u);   // C(4,2)=6
  EXPECT_EQ(enumerate_node_selections(g, 4).size(), 5u * 1u);   // C(4,4)=1
  EXPECT_EQ(enumerate_node_selections_with_replacement(g, 2).size(),
            5u * 16u);  // 4^2
}

TEST(SelectionEnumeration, EdgeSelectionsAreAllArcs) {
  const Graph g = gen::star(5);
  const auto selections = enumerate_edge_selections(g);
  EXPECT_EQ(selections.size(), 8u);  // 2m
  double total = 0.0;
  for (const auto& ws : selections) {
    EXPECT_EQ(ws.selection.sample.size(), 1u);
    EXPECT_TRUE(
        g.has_edge(ws.selection.node, ws.selection.sample.front()));
    total += ws.probability;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(NodeModel, UpdateRuleMatchesDefinition21) {
  // Fixed selection on a triangle: xi_0 <- a xi_0 + (1-a)(xi_1+xi_2)/2.
  const Graph g = gen::complete(3);
  NodeModelParams params;
  params.alpha = 0.25;
  params.k = 2;
  NodeModel model(g, {8.0, 2.0, 4.0}, params);
  model.apply(NodeSelection{0, {1, 2}});
  EXPECT_DOUBLE_EQ(model.state().value(0), 0.25 * 8.0 + 0.75 * 3.0);
  EXPECT_DOUBLE_EQ(model.state().value(1), 2.0);
  EXPECT_DOUBLE_EQ(model.state().value(2), 4.0);
  EXPECT_EQ(model.time(), 1);
}

TEST(NodeModel, StepSamplesOnlyNeighboursWithoutReplacement) {
  const Graph g = gen::cycle(8);
  NodeModelParams params;
  params.k = 2;
  NodeModel model(g, std::vector<double>(8, 0.0), params);
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const NodeSelection sel = model.step_recorded(rng);
    ASSERT_EQ(sel.sample.size(), 2u);
    EXPECT_NE(sel.sample[0], sel.sample[1]);
    for (const NodeId v : sel.sample) {
      EXPECT_TRUE(g.has_edge(sel.node, v));
    }
  }
}

TEST(NodeModel, NodeChoiceIsUniform) {
  const Graph g = gen::cycle(5);
  NodeModelParams params;
  NodeModel model(g, std::vector<double>(5, 0.0), params);
  Rng rng(5);
  std::map<NodeId, int> counts;
  constexpr int draws = 50000;
  for (int i = 0; i < draws; ++i) {
    ++counts[model.step_recorded(rng).node];
  }
  for (const auto& [node, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / draws, 0.2, 0.01) << node;
  }
}

TEST(NodeModel, LazyStepsAreHalfNoops) {
  const Graph g = gen::cycle(6);
  NodeModelParams params;
  params.lazy = true;
  NodeModel model(g, std::vector<double>(6, 0.0), params);
  Rng rng(7);
  int noops = 0;
  constexpr int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    noops += model.step_recorded(rng).is_noop() ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(noops) / draws, 0.5, 0.02);
  EXPECT_EQ(model.time(), draws);  // lazy steps still advance time
}

TEST(NodeModel, RejectsKAboveMinDegree) {
  const Graph g = gen::star(5);  // leaves have degree 1
  NodeModelParams params;
  params.k = 2;
  EXPECT_THROW(NodeModel(g, std::vector<double>(5, 0.0), params),
               ContractError);
  params.sampling = SamplingMode::with_replacement;
  // With replacement only needs degree >= 1.
  NodeModel ok(g, std::vector<double>(5, 0.0), params);
  Rng rng(1);
  ok.step(rng);
}

TEST(NodeModel, RejectsInvalidAlpha) {
  const Graph g = gen::cycle(4);
  NodeModelParams params;
  params.alpha = 1.0;
  EXPECT_THROW(NodeModel(g, std::vector<double>(4, 0.0), params),
               ContractError);
  params.alpha = -0.1;
  EXPECT_THROW(NodeModel(g, std::vector<double>(4, 0.0), params),
               ContractError);
}

TEST(NodeModel, ValuesStayWithinInitialHull) {
  // Each update is a convex combination, so values never escape
  // [min xi(0), max xi(0)].
  const Graph g = gen::petersen();
  NodeModelParams params;
  params.alpha = 0.3;
  params.k = 2;
  NodeModel model(g, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, params);
  Rng rng(11);
  double previous_discrepancy = model.state().discrepancy();
  for (int i = 0; i < 20000; ++i) {
    model.step(rng);
    EXPECT_GE(model.state().min_value(), 0.0 - 1e-12);
    EXPECT_LE(model.state().max_value(), 9.0 + 1e-12);
    // The discrepancy max-min is non-increasing (Section 1 argument).
    const double k_now = model.state().discrepancy();
    ASSERT_LE(k_now, previous_discrepancy + 1e-12);
    previous_discrepancy = k_now;
  }
}

TEST(EdgeModel, UpdateRuleMatchesDefinition23) {
  const Graph g = gen::path(3);
  EdgeModelParams params;
  params.alpha = 0.5;
  EdgeModel model(g, {6.0, 8.0, 9.0}, params);
  model.apply(NodeSelection{0, {1}});
  EXPECT_DOUBLE_EQ(model.state().value(0), 7.0);
  EXPECT_DOUBLE_EQ(model.state().value(1), 8.0);
}

TEST(EdgeModel, ArcChoiceIsUniformOverDirectedEdges) {
  // On a star with 3 leaves there are 6 arcs; hub-as-source arcs should
  // appear with probability 1/6 each, leaf-as-source likewise.
  const Graph g = gen::star(4);
  EdgeModelParams params;
  EdgeModel model(g, std::vector<double>(4, 0.0), params);
  Rng rng(13);
  std::map<std::pair<NodeId, NodeId>, int> counts;
  constexpr int draws = 60000;
  for (int i = 0; i < draws; ++i) {
    const auto sel = model.step_recorded(rng);
    ++counts[{sel.node, sel.sample.front()}];
  }
  ASSERT_EQ(counts.size(), 6u);
  for (const auto& [arc, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / draws, 1.0 / 6.0, 0.01);
  }
}

TEST(EdgeModel, EquivalentToNodeModelK1OnRegularGraphs) {
  // Same seed, same graph: the two processes have identical one-step
  // *distributions* on regular graphs.  Check distributional equality via
  // the empirical frequency of (node, neighbour) selections.
  const Graph g = gen::cycle(5);
  NodeModelParams np;
  np.alpha = 0.5;
  np.k = 1;
  EdgeModelParams ep;
  ep.alpha = 0.5;
  NodeModel node_model(g, std::vector<double>(5, 0.0), np);
  EdgeModel edge_model(g, std::vector<double>(5, 0.0), ep);
  Rng rng_a(17);
  Rng rng_b(23);
  std::map<std::pair<NodeId, NodeId>, double> freq_node;
  std::map<std::pair<NodeId, NodeId>, double> freq_edge;
  constexpr int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    const auto a = node_model.step_recorded(rng_a);
    const auto b = edge_model.step_recorded(rng_b);
    freq_node[{a.node, a.sample.front()}] += 1.0 / draws;
    freq_edge[{b.node, b.sample.front()}] += 1.0 / draws;
  }
  ASSERT_EQ(freq_node.size(), freq_edge.size());
  for (const auto& [arc, f] : freq_node) {
    EXPECT_NEAR(f, freq_edge.at(arc), 0.01);
  }
}

TEST(Process, ApplyRejectsNonNeighbourSample) {
  const Graph g = gen::path(4);  // 0-1-2-3
  NodeModelParams params;
  NodeModel model(g, std::vector<double>(4, 0.0), params);
  EXPECT_THROW(model.apply(NodeSelection{0, {3}}), ContractError);
}

}  // namespace
}  // namespace opindyn
