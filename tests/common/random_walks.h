// The Random Walk Process of Section 5.2: n walks, walk u starting on
// node u, all driven by the *same* transition matrices B(t) as the
// Diffusion Process (that sharing is exactly what correlates them).  When
// a selection (u(t), S(t)) fires, every walk currently sitting on u(t)
// independently stays with probability alpha or jumps to a uniformly
// random member of S(t).
//
// Lemma 5.3: conditioned on the selection sequence, the distribution of
// walk u at time t is column u of R(t) -- so E[W~(u)] = W(u).
// Proposition 5.4: second moments also match:
// E[W~(u) W~(v)] = E[W(u) W(v)].
//
// Test support: the tests check Lemma 5.3 and the Q-chain closed forms
// against these walks; the library's scenarios never run them.
#ifndef OPINDYN_TESTS_COMMON_RANDOM_WALKS_H
#define OPINDYN_TESTS_COMMON_RANDOM_WALKS_H

#include <vector>

#include "src/core/selection.h"
#include "src/graph/graph.h"
#include "src/support/rng.h"

namespace opindyn {

class CorrelatedWalks {
 public:
  /// Starts walk u on node u for every u.  `graph` must outlive this.
  CorrelatedWalks(const Graph& graph, double alpha);

  /// Restricts to an arbitrary set of start nodes instead of all n
  /// (the two-walk Q-chain experiments track just a pair).
  CorrelatedWalks(const Graph& graph, double alpha,
                  std::vector<NodeId> start_positions);

  /// Applies one shared selection; `rng` drives the per-walk moves.
  void apply(const NodeSelection& selection, Rng& rng);

  std::size_t walk_count() const noexcept { return positions_.size(); }
  NodeId position(std::size_t walk) const;
  const std::vector<NodeId>& positions() const noexcept { return positions_; }

  /// Cost of walk w under cost vector xi(0): xi_{position(w)}(0).
  double cost(std::size_t walk, const std::vector<double>& xi0) const;

  std::int64_t time() const noexcept { return time_; }
  double alpha() const noexcept { return alpha_; }

 private:
  const Graph* graph_;
  double alpha_;
  std::vector<NodeId> positions_;
  std::int64_t time_ = 0;
};

}  // namespace opindyn

#endif  // OPINDYN_TESTS_COMMON_RANDOM_WALKS_H
