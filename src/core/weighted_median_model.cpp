#include "src/core/weighted_median_model.h"

#include "src/core/k_sample_burst.h"
#include "src/support/assert.h"

namespace opindyn {
namespace {

/// The lower median of the sample.  There is no FP arithmetic at all --
/// the update moves an existing value's bit pattern -- so bit-identity
/// with step() reduces to picking the same element, which the stable
/// shared sort guarantees.  k = 1 returns the one sample without the
/// sort's empty loop: with the loop in its IR, GCC 12 no longer pairs
/// the K = 1 kernels' running-sum updates into vector ops.
struct MedianRule {
  double operator()(double, double* m, int k) const {
    return k == 1 ? m[0] : lower_median_inplace(m, k);
  }
};

}  // namespace

WeightedMedianModel::WeightedMedianModel(const Graph& graph,
                                         std::vector<double> initial,
                                         const WeightedMedianParams& params)
    : AveragingProcess(graph, std::move(initial), /*alpha=*/0.0),
      params_(params),
      sample_(graph, params.k, params.sampling) {}

void WeightedMedianModel::apply_update(const NodeSelection& selection) {
  if (selection.is_noop()) {
    return;
  }
  const NodeId u = selection.node;
  const int k = static_cast<int>(selection.sample.size());
  median_scratch_.resize(selection.sample.size());
  for (int i = 0; i < k; ++i) {
    const NodeId v = selection.sample[static_cast<std::size_t>(i)];
    OPINDYN_EXPECTS(state().graph().has_edge(u, v),
                    "selection sample contains a non-neighbour");
    median_scratch_[static_cast<std::size_t>(i)] = state().value(v);
  }
  const double x = lower_median_inplace(median_scratch_.data(), k);
  mutable_state().set_value(u, x);
}

NodeSelection WeightedMedianModel::step_recorded(Rng& rng) {
  return sample_.step_recorded(*this, rng, params_.lazy);
}

void WeightedMedianModel::step_burst(Rng& rng, std::int64_t n_steps) {
  OPINDYN_EXPECTS(n_steps >= 0, "n_steps must be >= 0");
  ksample::run_burst(rng, n_steps, params_.lazy, MedianRule{},
                     mutable_state(), sample_);
  advance_time(n_steps);
}

}  // namespace opindyn
