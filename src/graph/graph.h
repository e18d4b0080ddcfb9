// Immutable undirected graph in compressed-sparse-row (CSR) form.
//
// The averaging processes of the paper only ever need two operations in
// their hot loop: "list the neighbours of u" and "give me the v of a
// uniformly random directed arc".  CSR provides both in O(1)/O(deg):
// `adjacency_[offsets_[u] .. offsets_[u+1])` are u's neighbours, and arc j
// is the pair (arc_source_[j], adjacency_[j]).  Graphs are built once via
// GraphBuilder and never mutated afterwards, so the simulation layer can
// share one Graph across replicas and threads without synchronisation.
//
// The representation is compact: arc offsets are stored as uint32 (node
// ids are already int32), which halves the offsets footprint and keeps a
// 10^7-node graph's CSR cache-friendly.  Construction rejects graphs
// with 2m >= 2^32 directed arcs (a ~17 GiB adjacency array) with a
// one-line error instead of silently truncating indices.
#ifndef OPINDYN_GRAPH_GRAPH_H
#define OPINDYN_GRAPH_GRAPH_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/support/assert.h"

namespace opindyn {

using NodeId = std::int32_t;
using ArcId = std::int64_t;

class Graph {
 public:
  /// Builds a graph from an explicit edge list over nodes {0..n-1}.
  /// Duplicate edges and self-loops are rejected (ContractError).
  Graph(NodeId node_count,
        const std::vector<std::pair<NodeId, NodeId>>& edges);

  NodeId node_count() const noexcept { return node_count_; }
  /// Number of undirected edges m.
  std::int64_t edge_count() const noexcept { return edge_count_; }
  /// Number of directed arcs (2m).
  ArcId arc_count() const noexcept {
    return static_cast<ArcId>(adjacency_.size());
  }

  /// Degree of u.  Hot-path checked: the range precondition is compiled
  /// out of optimised builds (OPINDYN_HOT_EXPECTS in support/assert.h).
  NodeId degree(NodeId u) const {
    OPINDYN_HOT_EXPECTS(u >= 0 && u < node_count_, "node id out of range");
    return static_cast<NodeId>(offsets_[static_cast<std::size_t>(u) + 1] -
                               offsets_[static_cast<std::size_t>(u)]);
  }
  NodeId min_degree() const noexcept { return min_degree_; }
  NodeId max_degree() const noexcept { return max_degree_; }
  bool is_regular() const noexcept { return min_degree_ == max_degree_; }

  /// Neighbours of u, sorted ascending.  Hot-path checked.
  std::span<const NodeId> neighbors(NodeId u) const {
    OPINDYN_HOT_EXPECTS(u >= 0 && u < node_count_, "node id out of range");
    const auto begin =
        static_cast<std::size_t>(offsets_[static_cast<std::size_t>(u)]);
    const auto end =
        static_cast<std::size_t>(offsets_[static_cast<std::size_t>(u) + 1]);
    return {adjacency_.data() + begin, end - begin};
  }

  /// i-th neighbour of u (0 <= i < degree(u)).
  NodeId neighbor(NodeId u, NodeId i) const;

  /// True iff {u, v} is an edge (binary search, O(log deg)).
  bool has_edge(NodeId u, NodeId v) const;

  /// Source / target of directed arc j in [0, 2m).  Hot-path checked.
  NodeId arc_source(ArcId j) const {
    OPINDYN_HOT_EXPECTS(j >= 0 && j < arc_count(), "arc id out of range");
    return arc_source_[static_cast<std::size_t>(j)];
  }
  NodeId arc_target(ArcId j) const {
    OPINDYN_HOT_EXPECTS(j >= 0 && j < arc_count(), "arc id out of range");
    return adjacency_[static_cast<std::size_t>(j)];
  }

  /// Stationary probability of the (lazy) random walk at u: d_u / 2m.
  double stationary(NodeId u) const {
    return static_cast<double>(degree(u)) / static_cast<double>(arc_count());
  }

  /// All undirected edges, each once with u < v.
  std::vector<std::pair<NodeId, NodeId>> undirected_edges() const;

  // Raw CSR arrays for the burst kernels (see core/node_model.cpp,
  // core/edge_model.cpp): the kernels index these directly in their hot
  // loops and must not pay a per-access accessor.  Layout contract:
  //   offsets_data()[u] .. offsets_data()[u+1]  -- u's row (sorted asc),
  //   adjacency_data()[j]                       -- target of arc j,
  //   arc_source_data()[j]                      -- source of arc j.
  const std::uint32_t* offsets_data() const noexcept {
    return offsets_.data();
  }
  const NodeId* adjacency_data() const noexcept { return adjacency_.data(); }
  const NodeId* arc_source_data() const noexcept {
    return arc_source_.data();
  }

  /// Optional human-readable name set by generators ("cycle(16)", ...).
  const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Approximate heap footprint of the CSR arrays (the cache-accounting
  /// unit for GraphCache's byte cap); deterministic for a given graph.
  std::uint64_t memory_bytes() const noexcept {
    return static_cast<std::uint64_t>(offsets_.size()) * sizeof(std::uint32_t) +
           static_cast<std::uint64_t>(adjacency_.size()) * sizeof(NodeId) +
           static_cast<std::uint64_t>(arc_source_.size()) * sizeof(NodeId) +
           static_cast<std::uint64_t>(name_.size()) + sizeof(Graph);
  }

 private:
  NodeId node_count_ = 0;
  std::int64_t edge_count_ = 0;
  NodeId min_degree_ = 0;
  NodeId max_degree_ = 0;
  std::vector<std::uint32_t> offsets_;  // size n+1, compact arc indices
  std::vector<NodeId> adjacency_;    // size 2m, sorted within each row
  std::vector<NodeId> arc_source_;   // size 2m: arc j -> its source node
  std::string name_;
};

}  // namespace opindyn

#endif  // OPINDYN_GRAPH_GRAPH_H
