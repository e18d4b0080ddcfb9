#include "tests/common/graph_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/graph/algorithms.h"
#include "src/graph/generators.h"

namespace opindyn {
namespace {

TEST(GraphIo, EdgeListRoundTrip) {
  const Graph original = gen::petersen();
  std::stringstream buffer;
  write_edge_list(original, buffer);
  const Graph parsed = read_edge_list(buffer);
  EXPECT_EQ(parsed.node_count(), original.node_count());
  EXPECT_EQ(parsed.edge_count(), original.edge_count());
  for (const auto& [u, v] : original.undirected_edges()) {
    EXPECT_TRUE(parsed.has_edge(u, v));
  }
}

TEST(GraphIo, ReadRejectsMalformedInput) {
  {
    std::stringstream s("not numbers");
    EXPECT_THROW(read_edge_list(s), std::runtime_error);
  }
  {
    std::stringstream s("3 2\n0 1\n");  // truncated edge section
    EXPECT_THROW(read_edge_list(s), std::runtime_error);
  }
  {
    std::stringstream s("3 1\n0 3\n");  // endpoint out of range
    EXPECT_THROW(read_edge_list(s), std::runtime_error);
  }
  {
    std::stringstream s("3 2\n0 1\n0 1\n");  // duplicate edge
    EXPECT_THROW(read_edge_list(s), std::runtime_error);
  }
  {
    std::stringstream s("3 1\n1 1\n");  // self loop
    EXPECT_THROW(read_edge_list(s), std::runtime_error);
  }
  {
    std::stringstream s("-1 0\n");
    EXPECT_THROW(read_edge_list(s), std::runtime_error);
  }
}

TEST(GraphIo, DotContainsNodesAndEdges) {
  const Graph g = gen::path(3);
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("graph G {"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1;"), std::string::npos);
  EXPECT_NE(dot.find("1 -- 2;"), std::string::npos);
}

TEST(GraphIo, DotWithValuesLabelsNodes) {
  const Graph g = gen::path(2);
  const std::vector<double> values{1.5, -2.0};
  const std::string dot = to_dot(g, &values);
  EXPECT_NE(dot.find("1.5"), std::string::npos);
  EXPECT_NE(dot.find("-2"), std::string::npos);
}

}  // namespace
}  // namespace opindyn
