// Coordinated pairwise-averaging gossip (Boyd et al., "Randomized gossip
// algorithms"): a random directed arc (u, v) fires and BOTH endpoints
// move to (xi_u + xi_v)/2.  This is the "stronger communication model"
// the paper's introduction contrasts with: the update matrix is doubly
// stochastic, so the plain average is conserved exactly and Var(F) = 0
// -- the price the unilateral NodeModel/EdgeModel pay for simplicity is
// exactly the variance that this baseline does not have.
#ifndef OPINDYN_CORE_GOSSIP_MODEL_H
#define OPINDYN_CORE_GOSSIP_MODEL_H

#include <cstdint>
#include <vector>

#include "src/core/process.h"
#include "src/graph/graph.h"
#include "src/support/rng.h"

namespace opindyn {

class GossipModel final : public AveragingProcess {
 public:
  /// `lazy` adds the 1/2 no-op coin of the paper's lazy variants.
  GossipModel(const Graph& graph, std::vector<double> initial,
              bool lazy = false);

  NodeSelection step_recorded(Rng& rng) override;
  void step_burst(Rng& rng, std::int64_t n_steps) override;

 protected:
  /// Two-sided update: BOTH selection.node and sample[0] move to their
  /// mean (the base rule only moves the selected node).
  void apply_update(const NodeSelection& selection) override;

 private:
  bool lazy_;
};

}  // namespace opindyn

#endif  // OPINDYN_CORE_GOSSIP_MODEL_H
