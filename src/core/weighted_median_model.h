// The weighted-median mechanism (arXiv:1909.06474): at each step a
// uniformly random node u samples k of its neighbours and moves its
// value to the *median* of the sampled values (lower median for even k).
// The interaction skeleton -- uniform node, k-sample of its row -- is
// exactly the NodeModel's (Definition 2.1); only the aggregation
// changes, from mean to median.  Both models therefore draw through one
// KSample and step through one burst kernel (core/k_sample_burst.h),
// which takes the aggregation as its rule.  For k = 1 the rule
// degenerates to the continuous voter copy.  Medians are order
// statistics, not arithmetic, so the rule is robust to outlier opinions
// where the mean rule is not -- that contrast is what the
// weighted_median scenario measures.
#ifndef OPINDYN_CORE_WEIGHTED_MEDIAN_MODEL_H
#define OPINDYN_CORE_WEIGHTED_MEDIAN_MODEL_H

#include <cstdint>
#include <vector>

#include "src/core/node_model.h"  // KSample, SamplingMode
#include "src/core/process.h"
#include "src/graph/graph.h"
#include "src/support/rng.h"

namespace opindyn {

/// Selects the lower median of `buf[0..k)` in draw order: stable
/// insertion sort, then element (k-1)/2.  Shared by the recorded path
/// and the burst kernels so ties between bit-distinct equal values
/// (-0.0 vs +0.0) resolve identically everywhere.
inline double lower_median_inplace(double* buf, int k) {
  for (int i = 1; i < k; ++i) {
    const double key = buf[i];
    int j = i - 1;
    while (j >= 0 && buf[j] > key) {
      buf[j + 1] = buf[j];
      --j;
    }
    buf[j + 1] = key;
  }
  return buf[(k - 1) / 2];
}

struct WeightedMedianParams {
  std::int64_t k = 1;
  bool lazy = false;
  SamplingMode sampling = SamplingMode::without_replacement;
};

class WeightedMedianModel final : public AveragingProcess {
 public:
  /// Requires k <= min_degree for without-replacement sampling (KSample).
  WeightedMedianModel(const Graph& graph, std::vector<double> initial,
                      const WeightedMedianParams& params);

  NodeSelection step_recorded(Rng& rng) override;
  void step_burst(Rng& rng, std::int64_t n_steps) override;

  const WeightedMedianParams& params() const noexcept { return params_; }

 protected:
  /// Median update: u moves to the lower median of the sampled values.
  void apply_update(const NodeSelection& selection) override;

 private:
  WeightedMedianParams params_;
  KSample sample_;
  std::vector<double> median_scratch_;  // apply_update's sampled values
};

}  // namespace opindyn

#endif  // OPINDYN_CORE_WEIGHTED_MEDIAN_MODEL_H
