// The classical (discrete) voter model -- the baseline the paper
// generalises (Section 2: "for k = 1 and alpha = 0 this model is
// equivalent to the voter model") and compares against (the remark after
// Theorem 2.2: the averaging process is faster by Omega(n / log n)).
// A uniformly random node adopts the opinion of a uniformly random
// neighbour; consensus is reached when one opinion remains.
//
// Opinions are value-coded inside the shared OpinionState: each discrete
// opinion is a double value, copies move those values around verbatim,
// and a dense-id side table keeps the distinct-opinion count in O(1) per
// step.  That makes the voter model a first-class AveragingProcess --
// phi/average reads, run_until_converged (via the converged() override:
// distinct count <= 1) and the scenario engine all work unchanged.
#ifndef OPINDYN_CORE_VOTER_MODEL_H
#define OPINDYN_CORE_VOTER_MODEL_H

#include <cstdint>
#include <vector>

#include "src/core/process.h"
#include "src/graph/graph.h"
#include "src/support/rng.h"

namespace opindyn {

class VoterModel final : public AveragingProcess {
 public:
  /// `opinions[u]` is node u's initial opinion, value-coded (equal
  /// doubles are the same opinion).  `lazy` adds the 1/2 no-op coin of
  /// the paper's lazy variants.
  VoterModel(const Graph& graph, std::vector<double> opinions,
             bool lazy = false);

  /// Convenience overload for classical integer opinion labels.
  VoterModel(const Graph& graph, const std::vector<int>& opinions,
             bool lazy = false);

  NodeSelection step_recorded(Rng& rng) override;
  void step_burst(Rng& rng, std::int64_t n_steps) override;

  /// Consensus, not the potential, is the voter stopping condition.
  bool converged(double epsilon, bool use_plain_potential) const override;
  /// converged() is O(1), so checking after every step costs nothing and
  /// makes T the exact consensus time.
  std::int64_t default_check_interval() const override { return 1; }

  bool has_consensus() const noexcept { return distinct_opinions_ <= 1; }
  int distinct_opinions() const noexcept { return distinct_opinions_; }
  double opinion(NodeId u) const { return state().value(u); }

 protected:
  /// Voter update: u adopts sample[0]'s opinion (ignores alpha).
  void apply_update(const NodeSelection& selection) override;

 private:
  /// The one mutation, shared by apply_update and the burst loop:
  /// id/count bookkeeping plus the value copy.
  void copy_opinion(NodeId u, NodeId v);

  bool lazy_;
  std::vector<int> opinion_ids_;      // node -> dense opinion id
  std::vector<std::int64_t> counts_;  // per dense opinion id
  int distinct_opinions_ = 0;
};

}  // namespace opindyn

#endif  // OPINDYN_CORE_VOTER_MODEL_H
