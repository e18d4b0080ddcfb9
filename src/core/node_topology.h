// Topology policies shared by the node-style burst kernels (NodeModel,
// WeightedMedianModel, HegselmannKrauseModel): how a kernel
// instantiation finds a node's adjacency row and its stationary
// weight.  All calls inline into the chunk loops.
#ifndef OPINDYN_CORE_NODE_TOPOLOGY_H
#define OPINDYN_CORE_NODE_TOPOLOGY_H

#include <cstdint>

#include "src/graph/graph.h"

namespace opindyn {

/// Regular graph: row base is u * d (no offsets load)
/// and pi = d / 2m is one constant (bit-identical to the per-node
/// array, which was filled from the same expression).
struct NodeRegularTopo {
  static constexpr bool kUniformPi = true;
  const NodeId* adj;
  std::int32_t d;
  double pi;
  std::int64_t row_base(NodeId u) const noexcept {
    return static_cast<std::int64_t>(u) * d;
  }
  std::int32_t degree(NodeId) const noexcept { return d; }
  double stationary(NodeId) const noexcept { return pi; }
  const NodeId* adjacency() const noexcept { return adj; }
};

/// Irregular graph: CSR offsets + per-node pi.
struct NodeIrregularTopo {
  static constexpr bool kUniformPi = false;
  const std::uint32_t* offsets;
  const NodeId* adj;
  const double* pi;
  std::int64_t row_base(NodeId u) const noexcept {
    return static_cast<std::int64_t>(offsets[static_cast<std::size_t>(u)]);
  }
  std::int32_t degree(NodeId u) const noexcept {
    return static_cast<std::int32_t>(
        offsets[static_cast<std::size_t>(u) + 1] -
        offsets[static_cast<std::size_t>(u)]);
  }
  double stationary(NodeId u) const noexcept {
    return pi[static_cast<std::size_t>(u)];
  }
  const NodeId* adjacency() const noexcept { return adj; }
};

}  // namespace opindyn

#endif  // OPINDYN_CORE_NODE_TOPOLOGY_H
