// Lockstep replica lanes: one AVX-512 burst advances up to eight
// independent replicas of the same process.
//
// The paper's statistics (E[F], Var(F), T_eps) are taken over many
// replicas, each drawing from its own Rng::fork stream, so the engine's
// inner loop is one node or edge update repeated in R copies that never
// interact.  The scalar burst kernels are limited by instruction
// throughput: a node step issues about 50 scalar micro-ops (two
// xoshiro256++ draws, two Lemire multiplies, the FP update and the four
// running sums, the loads and the store).  The lane kernel issues them
// once for up to eight replicas: lane l of every 512-bit register holds
// replica l's xoshiro state, running sums and value-array address.
// Bounded draws take the high and low product words from two 32x32-bit
// multiplies (every bound is below 2^32); the rare redraw of Lemire's
// method finishes per lane in scalar code (finish_below).  Values are
// read with gathers on absolute addresses and written with scatters;
// lanes not in use are masked.
//
// Each lane performs exactly the draws and the arithmetic step_burst
// performs on that replica alone, in the same order, so every replica's
// values, running sums, rng end state and time are bit-identical to
// stepping it by itself.  That holds only if the compiler contracts no
// multiply-add into an FMA, which the top-level CMakeLists.txt forbids
// for every target (-ffp-contract=off).
//
// Scope (LaneShape): node k = 1 (both sampling modes draw the same at
// k = 1) and edge, non-lazy, on regular graphs with 2m < 2^31.  Every
// other shape, and every CPU without AVX-512F, steps each process alone.
#ifndef OPINDYN_CORE_LANE_KERNEL_H
#define OPINDYN_CORE_LANE_KERNEL_H

#include <cstdint>
#include <span>

#include "src/graph/graph.h"
#include "src/support/rng.h"

namespace opindyn {

class OpinionState;

/// How a process steps in lanes (AveragingProcess::lane_shape).  Two
/// processes with equal shapes over the same graph can share a group.
struct LaneShape {
  enum class Rule : std::uint8_t { none, node, edge };
  Rule rule = Rule::none;
  double alpha = 0.0;
  bool operator==(const LaneShape&) const = default;
};

namespace lanes {

/// Most processes one lane burst advances.
inline constexpr std::int64_t kMaxLanes = 8;
/// Fewest live processes worth a lane burst.  One vector step costs
/// about as much as 3 scalar steps (node ~25 ns, edge ~18 ns at
/// n = 16384 on a 4-core AVX-512 Xeon VM), so 3 live lanes break even
/// and 2 lose ~40%.
inline constexpr std::int64_t kMinLanes = 4;
/// Largest graph the engine groups replicas on.  Eight live value
/// arrays of n = 65536 fill 4 MB and lanes still win there (node
/// 2.3-2.8x, edge 1.1-1.2x); at n = 262144 (16 MB) they do not (node
/// 1.0-1.3x, edge 0.7-0.8x).
inline constexpr NodeId kMaxNodes = NodeId{1} << 16;

/// "avx512f" when this CPU runs the lane kernel, "none" otherwise.
const char* kernel_name() noexcept;

/// Whether lane bursts run: the CPU supports the kernel and no
/// ScopedDisable is alive.
bool enabled() noexcept;

/// A test seam: while one lives, enabled() is false, so the engine
/// schedules one replica per unit and every group steps its processes
/// one by one.  Output bytes never depend on it.
class ScopedDisable {
 public:
  ScopedDisable() noexcept;
  ~ScopedDisable();
  ScopedDisable(const ScopedDisable&) = delete;
  ScopedDisable& operator=(const ScopedDisable&) = delete;
};

/// Replicas per scheduler unit for a cell of `replicas` runs of a
/// `shape` process over `n` nodes: 8 from 16 replicas on, 4 from 4, and
/// 1 (per-replica units) below that, past kMaxNodes, for shapes the
/// kernel does not cover, or while lanes are not enabled().  It never
/// depends on the thread count, so neither do the scheduler counters.
std::int64_t group_width(std::int64_t replicas, const LaneShape& shape,
                         NodeId n) noexcept;

/// One lane: a process's state and its rng.
struct Lane {
  OpinionState* state;
  Rng* rng;
};

/// Advances every lane `n_steps` steps of the `shape` rule, each with
/// its own state and rng, exactly as that process's step_burst would.
/// Requires enabled(), 1..kMaxLanes lanes with distinct states and rngs,
/// all over one regular graph with 2m < 2^31, and a shape the kernel
/// covers.  The caller advances the processes' time.
void step(const LaneShape& shape, std::span<const Lane> group,
          std::int64_t n_steps);

/// The scalar end of one lane's bounded draw: `x` is the first word the
/// lane drew from `state` (already stepped past it), and its low product
/// word fell below `bound`.  Finishes exactly as Rng::next_below does
/// (the redraw loop included) and returns the draw; `state` is left
/// after the last word consumed.
std::uint64_t finish_below(Rng::State& state, std::uint64_t x,
                           std::uint64_t bound) noexcept;

}  // namespace lanes
}  // namespace opindyn

#endif  // OPINDYN_CORE_LANE_KERNEL_H
