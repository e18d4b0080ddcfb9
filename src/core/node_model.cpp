#include "src/core/node_model.h"

#include "src/core/burst_kernels.h"
#include "src/core/k_sample_burst.h"
#include "src/support/assert.h"
#include "src/support/sampling.h"

namespace opindyn {
namespace {

/// Definition 2.1's mean rule, alpha*old + (1-alpha)*mean(sample), with
/// the sample summed in draw order: the arithmetic of
/// AveragingProcess::apply_update.
struct MeanRule {
  double a;
  double one_minus_a = 1.0 - a;
  double operator()(double old, const double* m, int k) const {
    double sum = 0.0;
    for (int i = 0; i < k; ++i) {
      sum += m[i];
    }
    // sum / 1.0 is bit-exactly sum, so k = 1 skips the division.
    const double mean = k == 1 ? sum : sum / static_cast<double>(k);
    return a * old + one_minus_a * mean;
  }
};

}  // namespace

KSample::KSample(const Graph& graph, std::int64_t k, SamplingMode mode)
    : k_(k), mode_(mode) {
  OPINDYN_EXPECTS(k >= 1, "k must be >= 1");
  if (mode == SamplingMode::without_replacement) {
    OPINDYN_EXPECTS(k <= graph.min_degree(),
                    "k must be <= min degree for sampling without "
                    "replacement");
  }
  nodes_.resize(static_cast<std::size_t>(k));
  values_.resize(static_cast<std::size_t>(k));
}

NodeId KSample::draw(Rng& rng, const Graph& graph) {
  const auto u = static_cast<NodeId>(
      rng.next_below(static_cast<std::uint64_t>(graph.node_count())));
  const auto row = graph.neighbors(u);
  const auto d = static_cast<std::int64_t>(row.size());
  const auto k = static_cast<std::size_t>(k_);
  if (mode_ == SamplingMode::without_replacement) {
    sample_without_replacement(rng, d, k_, picked_);
    for (std::size_t i = 0; i < k; ++i) {
      nodes_[i] = row[static_cast<std::size_t>(picked_[i])];
    }
  } else {
    for (std::size_t i = 0; i < k; ++i) {
      nodes_[i] = row[static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(d)))];
    }
  }
  return u;
}

NodeSelection KSample::step_recorded(AveragingProcess& process, Rng& rng,
                                     bool lazy) {
  NodeSelection selection;  // an empty sample records a lazy no-op
  if (!lazy || !rng.next_bool(0.5)) {
    selection.node = draw(rng, process.graph());
    // The returned selection owns its copy (the duality replay API keeps
    // whole sequences alive); the draw itself stayed on the scratch.
    selection.sample = nodes_;
  }
  process.apply(selection);
  return selection;
}

NodeModel::NodeModel(const Graph& graph, std::vector<double> initial,
                     const NodeModelParams& params)
    : AveragingProcess(graph, std::move(initial), params.alpha),
      params_(params),
      sample_(graph, params.k, params.sampling) {}

LaneShape NodeModel::lane_shape(const Graph& graph,
                                const NodeModelParams& params) {
  if (params.k != 1 || params.lazy || !graph.is_regular() ||
      graph.arc_count() >= burst::kMaxChunkedArcs) {
    return {};
  }
  return {LaneShape::Rule::node, params.alpha};
}

NodeSelection NodeModel::step_recorded(Rng& rng) {
  return sample_.step_recorded(*this, rng, params_.lazy);
}

void NodeModel::step_burst(Rng& rng, std::int64_t n_steps) {
  OPINDYN_EXPECTS(n_steps >= 0, "n_steps must be >= 0");
  ksample::run_burst(rng, n_steps, params_.lazy, MeanRule{alpha()},
                     mutable_state(), sample_);
  advance_time(n_steps);
}

}  // namespace opindyn
