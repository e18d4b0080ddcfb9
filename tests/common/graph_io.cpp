#include "tests/common/graph_io.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "src/graph/builder.h"
#include "src/support/assert.h"

namespace opindyn {

void write_edge_list(const Graph& graph, std::ostream& out) {
  out << graph.node_count() << " " << graph.edge_count() << "\n";
  for (const auto& [u, v] : graph.undirected_edges()) {
    out << u << " " << v << "\n";
  }
}

Graph read_edge_list(std::istream& in) {
  NodeId n = 0;
  std::int64_t m = 0;
  if (!(in >> n >> m)) {
    throw std::runtime_error("edge list: missing 'n m' header");
  }
  if (n <= 0 || m < 0) {
    throw std::runtime_error("edge list: invalid header values");
  }
  GraphBuilder builder(n);
  for (std::int64_t i = 0; i < m; ++i) {
    NodeId u = 0;
    NodeId v = 0;
    if (!(in >> u >> v)) {
      throw std::runtime_error("edge list: truncated edge section");
    }
    if (u < 0 || u >= n || v < 0 || v >= n || u == v) {
      throw std::runtime_error("edge list: invalid edge");
    }
    if (!builder.add_edge(u, v)) {
      throw std::runtime_error("edge list: duplicate edge");
    }
  }
  return builder.build("from_edge_list");
}

std::string to_dot(const Graph& graph,
                   const std::vector<double>* node_values) {
  if (node_values != nullptr) {
    OPINDYN_EXPECTS(node_values->size() ==
                        static_cast<std::size_t>(graph.node_count()),
                    "node value vector size mismatch");
  }
  std::ostringstream out;
  out << "graph G {\n";
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    out << "  " << u;
    if (node_values != nullptr) {
      out << " [label=\"" << u << "\\n"
          << (*node_values)[static_cast<std::size_t>(u)] << "\"]";
    }
    out << ";\n";
  }
  for (const auto& [u, v] : graph.undirected_edges()) {
    out << "  " << u << " -- " << v << ";\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace opindyn
