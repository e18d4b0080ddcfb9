// How a scenario runs a model, shared by the scenario translation units
// (scenarios.cpp, scenarios_paper.cpp): one group loop
// (core/convergence.h), two stop rules.  submit_converging runs every
// replica to eps-convergence and records its result in the fixed metric
// slots below; submit_horizon runs every replica a fixed number of steps
// for the scenarios that read the state at a set time (trajectory,
// hegselmann_krause, martingale, corE2_bounds).  Both go through
// submit_processes, so each scenario only picks a model, its options and
// a salt, then folds the slots it reports.
#ifndef OPINDYN_ENGINE_SCENARIO_RUNS_H
#define OPINDYN_ENGINE_SCENARIO_RUNS_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "src/core/convergence.h"
#include "src/core/lane_kernel.h"
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

/// Submits spec.replicas replicas of `config` in units of
/// lanes::group_width consecutive replicas, replica r drawing from
/// fork(seed, r).  Each unit builds one process per slot from the cell's
/// initial state (voter: n distinct opinions 0..n-1, as VoterModel ids
/// opinions by value) and calls run(processes, rngs, slots), which steps
/// them in one group loop; a replica's result is the one it has alone.
template <class Run>
std::shared_ptr<ReplicaBatch> submit_processes(
    const RunInput& in, const ModelConfig& config, std::uint64_t seed,
    std::size_t metrics, Run run, const RowStream* rows = nullptr) {
  std::vector<double> voter(
      config.kind == ModelKind::voter ? in.initial.size() : 0);
  std::iota(voter.begin(), voter.end(), 0.0);
  const std::int64_t group = lanes::group_width(
      in.spec.replicas, lane_shape(config, in.graph), in.graph.node_count());
  return in.scheduler.submit_groups(
      in.spec.replicas, group, seed, metrics,
      [in, config, voter = std::move(voter),
       run = std::move(run)](std::span<ReplicaSlot> slots) {
        std::vector<std::unique_ptr<AveragingProcess>> owned;
        std::vector<AveragingProcess*> processes;
        std::vector<Rng*> rngs;
        for (ReplicaSlot& slot : slots) {
          owned.push_back(make_process(
              in.graph, config, voter.empty() ? in.initial : voter));
          processes.push_back(owned.back().get());
          rngs.push_back(&slot.rng);
        }
        run(processes, rngs, slots);
      },
      rows);
}

/// Submits spec.replicas runs of `config` to eps-convergence under
/// `convergence` through submit_processes, with seed spec.seed for salt
/// 0 and subseed(spec.seed, salt) otherwise, so every sub-experiment of
/// a scenario gets its own stream family.  Each process checks at its own
/// default_check_interval() unless `convergence` sets one.  With a `rows`
/// stream, each replica emits its (replica, F, T_eps) row.
inline std::shared_ptr<ReplicaBatch> submit_converging(
    const RunInput& in, const ModelConfig& config,
    const ConvergenceOptions& convergence, std::uint64_t salt = 0,
    const RowStream* rows = nullptr) {
  return submit_processes(
      in, config, salt == 0 ? in.spec.seed : subseed(in.spec.seed, salt),
      kConvergedMetrics,
      [convergence, rows](const auto& processes, const auto& rngs,
                          std::span<ReplicaSlot> slots) {
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

/// Submits spec.replicas runs of `config` for `run.max_steps` steps
/// through submit_processes with seed spec.seed; read(process, out) fills
/// each replica's metric slots at the horizon.  With a `rows` stream,
/// row(process, slot) emits a replica's row at t = 0, every
/// `run.check_interval` steps (0: the process's default) and the horizon.
template <class Read>
std::shared_ptr<ReplicaBatch> submit_horizon(
    const RunInput& in, const ModelConfig& config,
    const ConvergenceOptions& run, std::size_t metrics, Read read,
    std::function<void(const AveragingProcess&, ReplicaSlot&)> row = {},
    const RowStream* rows = nullptr) {
  return submit_processes(
      in, config, in.spec.seed, metrics,
      [run, read = std::move(read), row = std::move(row), rows](
          const auto& processes, const auto& rngs,
          std::span<ReplicaSlot> slots) {
        run_fixed_horizon(processes, rngs, run, [&](std::size_t i) {
          if (rows != nullptr) {
            row(*processes[i], slots[i]);
          }
        });
        for (std::size_t i = 0; i < slots.size(); ++i) {
          read(*processes[i], slots[i].out);
        }
      },
      rows);
}

}  // namespace engine
}  // namespace opindyn

#endif  // OPINDYN_ENGINE_SCENARIO_RUNS_H
