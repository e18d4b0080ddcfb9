// The EdgeModel (Definition 2.3): at each step a uniformly random
// *directed* edge (u, v) is drawn among all 2m arcs and u moves its value
// to alpha*xi_u + (1-alpha)*xi_v.  For d-regular graphs this coincides
// with the NodeModel at k = 1 (the remark after Theorem 2.4); for
// irregular graphs it is a genuinely different process whose martingale is
// the *plain* average Avg(t) (Prop. D.1.i).
#ifndef OPINDYN_CORE_EDGE_MODEL_H
#define OPINDYN_CORE_EDGE_MODEL_H

#include <vector>

#include "src/core/process.h"

namespace opindyn {

struct EdgeModelParams {
  double alpha = 0.5;
  /// Lazy variant: with probability 1/2 the step is a no-op.
  bool lazy = false;
};

class EdgeModel final : public AveragingProcess {
 public:
  EdgeModel(const Graph& graph, std::vector<double> initial,
            const EdgeModelParams& params);

  NodeSelection step_recorded(Rng& rng) override;

  void step_burst(Rng& rng, std::int64_t n_steps) override;

  /// Rule::edge for non-lazy runs on regular graphs with 2m < 2^31.
  static LaneShape lane_shape(const Graph& graph,
                              const EdgeModelParams& params);
  LaneShape lane_shape() const override {
    return lane_shape(graph(), params_);
  }

  const EdgeModelParams& params() const noexcept { return params_; }

 private:
  /// Scalar fallback for graphs past the chunked kernels' 2m < 2^31
  /// index range.
  void step_burst_generic(Rng& rng, std::int64_t n_steps);

  EdgeModelParams params_;
};

}  // namespace opindyn

#endif  // OPINDYN_CORE_EDGE_MODEL_H
