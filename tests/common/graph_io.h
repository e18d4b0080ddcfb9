// Graph serialisation: whitespace edge lists (read/write) and Graphviz DOT
// export for visual inspection of small instances.  Test support: only
// the tests read or write graph files, so this stays out of the library.
#ifndef OPINDYN_TESTS_COMMON_GRAPH_IO_H
#define OPINDYN_TESTS_COMMON_GRAPH_IO_H

#include <iosfwd>
#include <string>

#include "src/graph/graph.h"

namespace opindyn {

/// Writes "n m" then one "u v" line per undirected edge.
void write_edge_list(const Graph& graph, std::ostream& out);

/// Reads the format written by write_edge_list.
/// Throws std::runtime_error on malformed input.
Graph read_edge_list(std::istream& in);

/// Graphviz DOT (undirected), optionally labelling nodes with values.
std::string to_dot(const Graph& graph,
                   const std::vector<double>* node_values = nullptr);

}  // namespace opindyn

#endif  // OPINDYN_TESTS_COMMON_GRAPH_IO_H
