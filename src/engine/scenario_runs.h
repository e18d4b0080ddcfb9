// The one way a scenario runs a model to eps-convergence, shared by the
// scenario translation units (scenarios.cpp, scenarios_paper.cpp):
// submit_converging schedules the cell's replicas of make_process +
// run_until_converged and records every replica's result in the fixed
// metric slots below, so each scenario only picks a model, its
// convergence options and a salt, then folds the slots it reports.
// run_to_horizon is the fixed-horizon counterpart for the scenarios that
// read the state at a set time instead (hegselmann_krause, martingale).
#ifndef OPINDYN_ENGINE_SCENARIO_RUNS_H
#define OPINDYN_ENGINE_SCENARIO_RUNS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "src/core/convergence.h"
#include "src/core/lane_kernel.h"
#include "src/core/model.h"
#include "src/engine/scenario.h"
#include "src/service/cancel_token.h"
#include "src/support/metrics.h"

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
/// start).  Each process checks at its own default_check_interval()
/// unless `convergence` sets one.  With a `rows` stream, each replica
/// emits its (replica, F, T_eps) row.
///
/// Units cover lanes::group_width consecutive replicas, which one
/// run_until_converged group loop runs together (in lanes where the lane
/// kernel covers the shape); every replica's result is the one it would
/// have alone, so only the unit count depends on the width.
inline std::shared_ptr<ReplicaBatch> submit_converging(
    const RunInput& in, const ModelConfig& config,
    const ConvergenceOptions& convergence, std::uint64_t salt = 0,
    const RowStream* rows = nullptr) {
  std::vector<double> opinions;  // empty: start from in.initial
  if (config.kind == ModelKind::voter) {
    opinions.resize(static_cast<std::size_t>(in.graph.node_count()));
    std::iota(opinions.begin(), opinions.end(), 0.0);
  }
  const std::int64_t group = lanes::group_width(
      in.spec.replicas, lane_shape(config, in.graph), in.graph.node_count());
  return in.scheduler.submit_groups(
      in.spec.replicas, group,
      salt == 0 ? in.spec.seed : subseed(in.spec.seed, salt),
      kConvergedMetrics,
      [in, config, convergence, opinions = std::move(opinions),
       rows](std::span<ReplicaSlot> slots) {
        std::vector<std::unique_ptr<AveragingProcess>> owned;
        std::vector<AveragingProcess*> processes;
        std::vector<Rng*> rngs;
        for (ReplicaSlot& slot : slots) {
          owned.push_back(make_process(
              in.graph, config, opinions.empty() ? in.initial : opinions));
          processes.push_back(owned.back().get());
          rngs.push_back(&slot.rng);
        }
        std::vector<ConvergenceResult> results(slots.size());
        run_until_converged(processes, rngs, convergence, results);
        for (std::size_t i = 0; i < slots.size(); ++i) {
          const ConvergenceResult& res = results[i];
          std::span<double> out = slots[i].out;
          out[kValue] = res.final_value;
          out[kSteps] = static_cast<double>(res.steps);
          out[kConverged] = res.converged ? 1.0 : 0.0;
          if (res.converged) {
            out[kHitSteps] = out[kSteps];
          }
          if (rows != nullptr) {
            slots[i].rows.row().integer(slots[i].replica).general(
                res.final_value).integer(res.steps);
          }
        }
      },
      rows);
}

/// Advances `process` to time `horizon` in bursts of max(1, n/4) steps
/// and polls the cancel token before each, so a huge horizon stays
/// cancellable; the step_burst contract makes the state and the rng
/// stream identical to one burst of the whole horizon.  Counts the steps
/// as engine.steps.
inline void run_to_horizon(AveragingProcess& process, Rng& rng,
                           std::int64_t horizon) {
  const std::int64_t start = process.time();
  const std::int64_t chunk =
      std::max<std::int64_t>(1, process.graph().node_count() / 4);
  while (process.time() < horizon) {
    cancel::poll();
    process.step_burst(rng, std::min(chunk, horizon - process.time()));
  }
  metrics::count("engine.steps", process.time() - start);
}

}  // namespace engine
}  // namespace opindyn

#endif  // OPINDYN_ENGINE_SCENARIO_RUNS_H
