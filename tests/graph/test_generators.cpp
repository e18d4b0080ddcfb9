#include "src/graph/generators.h"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/graph/algorithms.h"
#include "src/graph/builder.h"
#include "src/support/assert.h"
#include "src/support/cell_scheduler.h"
#include "src/support/sampling.h"

namespace opindyn {
namespace {

TEST(Generators, PathShape) {
  const Graph g = gen::path(5);
  EXPECT_EQ(g.node_count(), 5);
  EXPECT_EQ(g.edge_count(), 4);
  EXPECT_EQ(g.min_degree(), 1);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(diameter(g), 4);
}

TEST(Generators, CycleIsTwoRegular) {
  const Graph g = gen::cycle(8);
  EXPECT_EQ(g.edge_count(), 8);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.min_degree(), 2);
  EXPECT_EQ(diameter(g), 4);
  EXPECT_TRUE(is_bipartite(g));
  EXPECT_FALSE(is_bipartite(gen::cycle(7)));
}

TEST(Generators, CompleteGraph) {
  const Graph g = gen::complete(6);
  EXPECT_EQ(g.edge_count(), 15);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.min_degree(), 5);
  EXPECT_EQ(diameter(g), 1);
}

TEST(Generators, StarShape) {
  const Graph g = gen::star(10);
  EXPECT_EQ(g.edge_count(), 9);
  EXPECT_EQ(g.degree(0), 9);
  EXPECT_EQ(g.degree(5), 1);
  EXPECT_EQ(diameter(g), 2);
}

TEST(Generators, DoubleStarShape) {
  const Graph g = gen::double_star(4);
  EXPECT_EQ(g.node_count(), 10);
  EXPECT_EQ(g.degree(0), 5);  // hub: 4 leaves + other hub
  EXPECT_EQ(g.degree(1), 5);
  EXPECT_EQ(g.degree(7), 1);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(diameter(g), 3);
}

TEST(Generators, GridAndTorus) {
  const Graph grid = gen::grid(3, 4);
  EXPECT_EQ(grid.node_count(), 12);
  EXPECT_EQ(grid.edge_count(), 3 * 3 + 2 * 4);  // horizontal + vertical
  EXPECT_EQ(grid.min_degree(), 2);
  EXPECT_EQ(grid.max_degree(), 4);
  EXPECT_TRUE(is_connected(grid));

  const Graph torus = gen::torus(4, 5);
  EXPECT_EQ(torus.node_count(), 20);
  EXPECT_TRUE(torus.is_regular());
  EXPECT_EQ(torus.min_degree(), 4);
  EXPECT_EQ(torus.edge_count(), 40);
}

TEST(Generators, HypercubeSpectrumFriendlyShape) {
  const Graph g = gen::hypercube(4);
  EXPECT_EQ(g.node_count(), 16);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.min_degree(), 4);
  EXPECT_EQ(diameter(g), 4);
  EXPECT_TRUE(is_bipartite(g));
}

TEST(Generators, CirculantDegrees) {
  const Graph g = gen::circulant(10, {1, 2});
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.min_degree(), 4);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, CompleteBipartite) {
  const Graph g = gen::complete_bipartite(3, 4);
  EXPECT_EQ(g.node_count(), 7);
  EXPECT_EQ(g.edge_count(), 12);
  EXPECT_EQ(g.degree(0), 4);
  EXPECT_EQ(g.degree(3), 3);
  EXPECT_TRUE(is_bipartite(g));
}

TEST(Generators, BinaryTree) {
  const Graph g = gen::binary_tree(7);
  EXPECT_EQ(g.edge_count(), 6);
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(is_bipartite(g));  // trees are bipartite
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(1), 3);
  EXPECT_EQ(g.degree(6), 1);
}

TEST(Generators, PetersenProperties) {
  const Graph g = gen::petersen();
  EXPECT_EQ(g.node_count(), 10);
  EXPECT_EQ(g.edge_count(), 15);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.min_degree(), 3);
  EXPECT_EQ(diameter(g), 2);
  EXPECT_FALSE(is_bipartite(g));
}

TEST(Generators, BarbellAndLollipop) {
  const Graph bb = gen::barbell(5, 3);
  EXPECT_EQ(bb.node_count(), 13);
  EXPECT_TRUE(is_connected(bb));
  EXPECT_EQ(bb.max_degree(), 5);  // bridge endpoints in the cliques

  const Graph bb0 = gen::barbell(4, 0);
  EXPECT_EQ(bb0.node_count(), 8);
  EXPECT_TRUE(is_connected(bb0));

  const Graph lp = gen::lollipop(6, 4);
  EXPECT_EQ(lp.node_count(), 10);
  EXPECT_TRUE(is_connected(lp));
  EXPECT_EQ(lp.min_degree(), 1);
}

TEST(Generators, RandomRegularIsSimpleConnectedRegular) {
  Rng rng(123);
  for (const auto& [n, d] : {std::pair<NodeId, NodeId>{16, 3},
                             {20, 4},
                             {30, 5},
                             {12, 6}}) {
    const Graph g = gen::random_regular(rng, n, d);
    EXPECT_EQ(g.node_count(), n);
    EXPECT_TRUE(g.is_regular()) << "n=" << n << " d=" << d;
    EXPECT_EQ(g.min_degree(), d);
    EXPECT_TRUE(is_connected(g));
  }
}

// The pairing-model loop as it was before random_regular stopped
// allocating per attempt: shuffle a fresh permutation, then test pairs
// 0, 1, ... through GraphBuilder's hash-set membership index.  Kept as
// the oracle the in-place version must reproduce draw for draw.
Graph random_regular_hash_set_oracle(Rng& rng, NodeId n, NodeId d) {
  const std::int64_t stubs = static_cast<std::int64_t>(n) * d;
  for (int attempt = 0; attempt < 10000; ++attempt) {
    const std::vector<std::int32_t> perm = random_permutation(rng, stubs);
    GraphBuilder builder(n);
    builder.reserve(stubs / 2);
    bool simple = true;
    for (std::int64_t i = 0; i < stubs; i += 2) {
      const NodeId u = perm[static_cast<std::size_t>(i)] / d;
      const NodeId v = perm[static_cast<std::size_t>(i + 1)] / d;
      if (u == v || builder.has_edge(u, v)) {
        simple = false;
        break;
      }
      builder.add_edge(u, v);
    }
    if (!simple) {
      continue;
    }
    Graph graph = builder.build("random_regular(" + std::to_string(n) + "," +
                                std::to_string(d) + ")");
    if (is_connected(graph)) {
      return graph;
    }
  }
  throw std::runtime_error("oracle: no simple connected graph");
}

TEST(Generators, RandomRegularMatchesHashSetOracleAndRngStream) {
  // d = 7 accepts a pairing with probability ~e^-12, so at n = 100 most
  // seeds exhaust all 10000 attempts: both versions must then throw
  // after the same draws.
  for (const auto& [n, d] : {std::pair<NodeId, NodeId>{16, 3},
                             {128, 4},
                             {1024, 4},
                             {16384, 4},
                             {100, 7}}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE("n=" + std::to_string(n) + " d=" + std::to_string(d) +
                   " seed=" + std::to_string(seed));
      Rng rng(seed);
      Rng oracle_rng(seed);
      std::optional<Graph> g;
      std::optional<Graph> expected;
      try {
        g.emplace(gen::random_regular(rng, n, d));
      } catch (const std::runtime_error&) {
      }
      try {
        expected.emplace(random_regular_hash_set_oracle(oracle_rng, n, d));
      } catch (const std::runtime_error&) {
      }
      ASSERT_EQ(g.has_value(), expected.has_value());
      if (g) {
        EXPECT_EQ(g->name(), expected->name());
        ASSERT_EQ(g->undirected_edges(), expected->undirected_edges());
      }
      // Same draws consumed, rejected attempts included.
      EXPECT_EQ(rng(), oracle_rng());
    }
  }
}

// The oracle's graph (if any) and the next word of its rng afterwards.
struct OracleBuild {
  std::optional<std::vector<std::pair<NodeId, NodeId>>> edges;
  std::uint64_t next_word = 0;
};

OracleBuild oracle_build(NodeId n, NodeId d, std::uint64_t seed) {
  OracleBuild build;
  Rng rng(seed);
  try {
    build.edges = random_regular_hash_set_oracle(rng, n, d).undirected_edges();
  } catch (const std::runtime_error&) {
  }
  build.next_word = rng();
  return build;
}

// random_regular called from a pool unit with the scheduler's idle
// workers helping, as the engine's graph prefetch calls it: the same
// edges and the same rng end state as the serial oracle at every worker
// count, exhausted-and-thrown searches included.
void expect_pool_builds_match_oracle(NodeId n, NodeId d, std::uint64_t seed,
                                     const OracleBuild& expected) {
  for (const std::size_t threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("n=" + std::to_string(n) + " d=" + std::to_string(d) +
                 " seed=" + std::to_string(seed) +
                 " threads=" + std::to_string(threads));
    CellScheduler scheduler(threads);
    Rng rng(seed);
    std::optional<Graph> g;
    const auto batch = scheduler.submit(
        1, 0, 1, [&](std::int64_t, Rng&, std::span<double>) {
          try {
            g.emplace(gen::random_regular(rng, n, d, &scheduler));
          } catch (const std::runtime_error&) {
          }
        });
    batch->wait();
    ASSERT_EQ(g.has_value(), expected.edges.has_value());
    if (g) {
      ASSERT_EQ(g->undirected_edges(), *expected.edges);
    }
    EXPECT_EQ(rng(), expected.next_word);
  }
}

TEST(Generators, RandomRegularOnPoolWorkersMatchesOracleAndRngStream) {
  for (const auto& [n, d] : {std::pair<NodeId, NodeId>{16, 3},
                             {128, 4},
                             {1024, 4},
                             {16384, 4},
                             {100, 7}}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      expect_pool_builds_match_oracle(n, d, seed, oracle_build(n, d, seed));
    }
  }
}

TEST(Generators, RandomRegularOnPoolWorkersMatchesOracleAtN131072) {
  expect_pool_builds_match_oracle(131072, 4, 1, oracle_build(131072, 4, 1));
}

TEST(Generators, RandomRegularRejectsOddProduct) {
  Rng rng(1);
  EXPECT_THROW(gen::random_regular(rng, 5, 3), ContractError);
  EXPECT_THROW(gen::random_regular(rng, 5, 5), ContractError);
}

TEST(Generators, ErdosRenyiConnected) {
  Rng rng(7);
  const Graph g = gen::erdos_renyi_connected(rng, 40, 0.2);
  EXPECT_EQ(g.node_count(), 40);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, PreferentialAttachmentShape) {
  Rng rng(11);
  const Graph g = gen::preferential_attachment(rng, 100, 2);
  EXPECT_EQ(g.node_count(), 100);
  EXPECT_TRUE(is_connected(g));
  EXPECT_GE(g.min_degree(), 2);
  // Heavy tail: some node should have degree well above the minimum.
  EXPECT_GE(g.max_degree(), 8);
  EXPECT_EQ(g.edge_count(), 3 + 97 * 2);  // K3 seed + 2 per newcomer
}

TEST(Generators, ParameterValidation) {
  Rng rng(1);
  EXPECT_THROW(gen::path(1), ContractError);
  EXPECT_THROW(gen::cycle(2), ContractError);
  EXPECT_THROW(gen::torus(2, 5), ContractError);
  EXPECT_THROW(gen::circulant(10, {}), ContractError);
  EXPECT_THROW(gen::circulant(10, {0}), ContractError);
  EXPECT_THROW(gen::barbell(2, 1), ContractError);
  EXPECT_THROW(gen::preferential_attachment(rng, 3, 3), ContractError);
}

class RegularFamilies : public ::testing::TestWithParam<NodeId> {};

TEST_P(RegularFamilies, GeneratorsProduceConnectedGraphsAcrossSizes) {
  const NodeId n = GetParam();
  EXPECT_TRUE(is_connected(gen::cycle(n)));
  EXPECT_TRUE(is_connected(gen::complete(n)));
  EXPECT_TRUE(is_connected(gen::path(n)));
  EXPECT_TRUE(is_connected(gen::star(n)));
  EXPECT_TRUE(is_connected(gen::binary_tree(n)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RegularFamilies,
                         ::testing::Values(3, 4, 5, 8, 16, 33, 64, 127));

}  // namespace
}  // namespace opindyn
