// Shared constants for the chunked burst kernels (kernel v2).
//
// node_model.cpp, edge_model.cpp and weighted_median_model.cpp run each
// burst as fixed-size chunks of one fused loop, software-pipelined in
// groups of 8 steps:
//
//   draw   -- consume the rng in EXACT step() order for the whole
//             group (the node-style kernels also resolve the drawn
//             adjacency positions to neighbour slots here),
//   apply  -- walk the group sequentially, doing the exact
//             floating-point update and bookkeeping of set_value.
//
// Neighbour VALUES are never pre-gathered: the apply half reads them
// live in step order, which is the exact sequential semantics even
// when an earlier step in the group wrote the node a later step reads.
// A chunk settles the recompute cadence with one cursor advance unless
// it straddles the recompute threshold (or the run is lazy), in which
// case it accounts per update.
//
// Positions are held in int32: the chunked kernels are only entered
// when 2m < 2^31; larger graphs take the generic scalar path.
#ifndef OPINDYN_CORE_BURST_KERNELS_H
#define OPINDYN_CORE_BURST_KERNELS_H

#include <cstdint>

namespace opindyn {
namespace burst {

/// Steps per chunk.  Small enough that the per-chunk bookkeeping stays
/// cheap and the recompute check rarely falls inside one, large enough
/// to amortise the cadence check across the chunk.
inline constexpr int kChunkSteps = 64;

/// Largest arc count the chunked kernels handle (arc and adjacency
/// positions are int32); beyond this the models fall back to their
/// generic loops.
inline constexpr std::int64_t kMaxChunkedArcs = std::int64_t{1} << 31;

}  // namespace burst
}  // namespace opindyn

#endif  // OPINDYN_CORE_BURST_KERNELS_H
