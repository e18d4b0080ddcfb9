// The NodeModel (Definition 2.1): at each step a uniformly random node u
// samples k of its neighbours and moves its value to
// alpha*xi_u + (1-alpha)/k * sum of the sampled values.
//
// Options beyond the bare definition, each tied to a part of the paper:
//  * `lazy` -- the lazy variant of Section 4 (with probability 1/2 the
//    step is a no-op), which is the variant the convergence analysis
//    (Prop. B.1) is stated for.
//  * `SamplingMode` -- Definition 2.1 samples neighbours *without*
//    replacement, while the Appendix-B potential calculation (Lemma E.1.4)
//    treats the Y_i as independent, i.e. *with* replacement.  Both are
//    implemented so the difference (it only perturbs the (1 - 1/k)
//    cross-term) can be measured; the default follows Definition 2.1.
//  * alpha = 0, k = 1 reproduces the classical voter model's update rule
//    on numeric opinions.
#ifndef OPINDYN_CORE_NODE_MODEL_H
#define OPINDYN_CORE_NODE_MODEL_H

#include <vector>

#include "src/core/process.h"

namespace opindyn {

enum class SamplingMode {
  without_replacement,  // Definition 2.1
  with_replacement,     // Appendix B analysis variant
};

struct NodeModelParams {
  double alpha = 0.5;
  std::int64_t k = 1;
  bool lazy = false;
  SamplingMode sampling = SamplingMode::without_replacement;
};

class NodeModel final : public AveragingProcess {
 public:
  /// Requires k <= min_degree for without-replacement sampling (every node
  /// must be able to draw k distinct neighbours).
  NodeModel(const Graph& graph, std::vector<double> initial,
            const NodeModelParams& params);

  NodeSelection step_recorded(Rng& rng) override;

  void step_burst(Rng& rng, std::int64_t n_steps) override;

  /// Rule::node for k = 1, non-lazy runs on regular graphs with
  /// 2m < 2^31 (either sampling mode: at k = 1 both draw the same).
  static LaneShape lane_shape(const Graph& graph,
                              const NodeModelParams& params);
  LaneShape lane_shape() const override {
    return lane_shape(graph(), params_);
  }

  const NodeModelParams& params() const noexcept { return params_; }

 private:
  /// Draws one step's updating node and its k-sample into the member
  /// scratch buffers (no allocation), consuming `rng` exactly as
  /// step_recorded does; returns the updating node u.
  NodeId draw_selection(Rng& rng);

  /// step_burst fallback for configurations without a specialised
  /// compile-time-k kernel.
  void step_burst_generic(Rng& rng, std::int64_t n_steps);

  NodeModelParams params_;
  std::vector<std::int32_t> scratch_;   // Floyd subset indices buffer
  std::vector<NodeId> sample_scratch_;  // sampled node ids, draw order
};

}  // namespace opindyn

#endif  // OPINDYN_CORE_NODE_MODEL_H
