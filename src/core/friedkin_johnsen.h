// The Friedkin-Johnsen model (Section 3, [29]): every agent keeps an
// immutable *private* opinion s_u and iterates its *expressed* opinion
//   z_u(t+1) = lambda * mean_{v ~ u} z_v(t) + (1 - lambda) * s_u,
// with susceptibility lambda in [0, 1).  Unlike the paper's averaging
// processes, FJ does NOT reach consensus: it converges to the unique
// equilibrium  z* = (1 - lambda) (I - lambda W)^{-1} s, where persistent
// disagreement remains.  Included as the stubborn-agent comparator the
// paper cites ([27] studies a limited-information randomised variant
// similar to the NodeModel).
//
// As an AveragingProcess, the OpinionState holds the *expressed*
// opinions, `alpha()` is the susceptibility lambda, one "step" is one
// synchronous round (time() counts rounds), and the rng is never
// consumed.  FJ never reaches consensus, so its stop rule is not phi
// but the distance max_u |z_u - z*_u| <= eps to the equilibrium, which
// is solved once per model and checked after every round.
#ifndef OPINDYN_CORE_FRIEDKIN_JOHNSEN_H
#define OPINDYN_CORE_FRIEDKIN_JOHNSEN_H

#include <cstdint>
#include <vector>

#include "src/core/process.h"
#include "src/graph/graph.h"
#include "src/support/rng.h"

namespace opindyn {

class FriedkinJohnsenModel final : public AveragingProcess {
 public:
  /// `susceptibility` = lambda: weight on social influence (0 = fully
  /// stubborn, -> 1 approaches DeGroot consensus).
  FriedkinJohnsenModel(const Graph& graph,
                       std::vector<double> private_opinions,
                       double susceptibility);

  /// One round; a synchronous round has no chi(t), so the returned
  /// selection is empty.
  NodeSelection step_recorded(Rng& rng) override;
  /// `n_steps` synchronous rounds over all agents.
  void step_burst(Rng& rng, std::int64_t n_steps) override;

  /// Within eps of the equilibrium: distance_to_equilibrium() <= eps.
  bool converged(double epsilon, bool use_plain_potential) const override;
  /// One round.
  std::int64_t default_check_interval() const override { return 1; }

  /// Exact equilibrium z* = (1-lambda)(I - lambda W)^{-1} s; the
  /// iteration contracts toward it at rate lambda.  The dense O(n^3)
  /// solve runs on the first call only; s and lambda never change, so
  /// later calls return the cached point.
  const std::vector<double>& equilibrium() const;

  /// max_u |z_u - z*_u|.
  double distance_to_equilibrium() const;

 private:
  std::vector<double> private_;
  std::vector<double> scratch_;
  // Empty until equilibrium() first solves it: a cache, not state, so
  // const reads may fill it (a process is never shared across threads).
  mutable std::vector<double> equilibrium_;
};

}  // namespace opindyn

#endif  // OPINDYN_CORE_FRIEDKIN_JOHNSEN_H
