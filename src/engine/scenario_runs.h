// The one way a scenario runs a model to eps-convergence, shared by the
// scenario translation units (scenarios.cpp, scenarios_paper.cpp):
// submit_converging schedules the cell's replicas of make_process +
// run_until_converged and records every replica's result in the fixed
// metric slots below, so each scenario only picks a model, its
// convergence options and a salt, then folds the slots it reports.
#ifndef OPINDYN_ENGINE_SCENARIO_RUNS_H
#define OPINDYN_ENGINE_SCENARIO_RUNS_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "src/core/convergence.h"
#include "src/core/model.h"
#include "src/engine/scenario.h"

namespace opindyn {
namespace engine {

/// Metric slots of a submit_converging batch.
enum ConvergedMetric : std::size_t {
  kValue = 0,      // F: the degree-weighted average M when the run stops
  kSteps = 1,      // T_eps (max-steps for a replica that never converged)
  kConverged = 2,  // 1 when phi reached eps, else 0
  kHitSteps = 3,   // T_eps of converged replicas only (NaN otherwise)
  kConvergedMetrics = 4,
};

/// Submits spec.replicas runs of `config` from the cell's initial state
/// to eps-convergence under `convergence`; replica r draws from
/// fork(seed, r), where seed is spec.seed for salt 0 and
/// subseed(spec.seed, salt) otherwise, so every sub-experiment of a
/// scenario gets its own stream family.  The voter kind is the discrete
/// special case: it starts from n distinct opinions 0..n-1 (VoterModel
/// assigns dense ids by value, so this is the classic all-distinct voter
/// start) and checks its O(1) converged() after every step, so T is the
/// exact consensus time.  With a `rows` stream, each unit emits its
/// (replica, F, T_eps) row.
inline std::shared_ptr<ReplicaBatch> submit_converging(
    const RunInput& in, const ModelConfig& config,
    const ConvergenceOptions& convergence, std::uint64_t salt = 0,
    const RowStream* rows = nullptr) {
  ConvergenceOptions options = convergence;
  std::vector<double> opinions;  // empty: start from in.initial
  if (config.kind == ModelKind::voter) {
    options.check_interval = 1;
    opinions.resize(static_cast<std::size_t>(in.graph.node_count()));
    std::iota(opinions.begin(), opinions.end(), 0.0);
  }
  return in.scheduler.submit(
      in.spec.replicas, salt == 0 ? in.spec.seed : subseed(in.spec.seed, salt),
      kConvergedMetrics,
      [in, config, options, opinions = std::move(opinions), rows](
          std::int64_t r, Rng& rng, std::span<double> out,
          RowEmitter& emitter) {
        auto process = make_process(in.graph, config,
                                    opinions.empty() ? in.initial : opinions);
        const ConvergenceResult res =
            run_until_converged(*process, rng, options);
        out[kValue] = res.final_value;
        out[kSteps] = static_cast<double>(res.steps);
        out[kConverged] = res.converged ? 1.0 : 0.0;
        if (res.converged) {
          out[kHitSteps] = out[kSteps];
        }
        if (rows != nullptr) {
          emitter.row().integer(r).general(res.final_value).integer(
              res.steps);
        }
      },
      rows);
}

}  // namespace engine
}  // namespace opindyn

#endif  // OPINDYN_ENGINE_SCENARIO_RUNS_H
