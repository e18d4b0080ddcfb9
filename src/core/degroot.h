// The DeGroot model (Section 3, [23]): the classical *synchronous,
// deterministic* opinion dynamic xi(t+1) = W xi(t), with W the
// (optionally lazy) random-walk matrix.  For connected graphs (lazy, or
// non-bipartite) it converges to the degree-weighted average
// <pi, xi(0)> deterministically -- the same value the paper's NodeModel
// reaches only in expectation.  Included as the deterministic
// full-neighbourhood-communication comparator: zero variance, but every
// node must hear all neighbours every round.
//
// As an AveragingProcess, one "step" is one synchronous round (time()
// counts rounds) and the rng is never consumed (zero draws per step --
// the degenerate end of the draw-order-equivalence grid).  Its stop rule
// is the spread max - min <= eps, checked after every round, so
// run_until_converged reports the exact round count.
#ifndef OPINDYN_CORE_DEGROOT_H
#define OPINDYN_CORE_DEGROOT_H

#include <cstdint>
#include <vector>

#include "src/core/process.h"
#include "src/graph/graph.h"

namespace opindyn {

class DeGrootModel final : public AveragingProcess {
 public:
  /// `lazy` blends each round with weight 1/2 on the current value
  /// (needed for convergence on bipartite graphs).
  DeGrootModel(const Graph& graph, std::vector<double> initial, bool lazy);

  /// One round; a synchronous round has no chi(t), so the returned
  /// selection is empty.
  NodeSelection step_recorded(Rng& rng) override;
  /// `n_steps` synchronous rounds: every node simultaneously averages
  /// its neighbourhood.
  void step_burst(Rng& rng, std::int64_t n_steps) override;

  /// Consensus to within eps: discrepancy() = max - min <= eps.
  bool converged(double epsilon, bool use_plain_potential) const override;
  /// One round.
  std::int64_t default_check_interval() const override { return 1; }

 private:
  bool lazy_;
  std::vector<double> scratch_;
};

}  // namespace opindyn

#endif  // OPINDYN_CORE_DEGROOT_H
