#include "src/core/convergence.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/service/cancel_token.h"
#include "src/support/assert.h"
#include "src/support/metrics.h"

namespace opindyn {
namespace {

/// The one loop that advances processes.  At t = 0 and after each burst,
/// every process still running is shown to checkpoint(i) and asked
/// stop(i) (i: its group index); those stopped leave, and the rest step
/// on together.  Both are compile-time arguments, so no burst pays an
/// indirect call for them.  Counts engine.steps and engine.lane_steps.
template <class Stop, class Checkpoint>
void run_group(std::span<AveragingProcess* const> group,
               std::span<Rng* const> rngs, const ConvergenceOptions& options,
               Stop stop, Checkpoint checkpoint) {
  OPINDYN_EXPECTS(!group.empty() && rngs.size() == group.size(),
                  "one rng per process");
  OPINDYN_EXPECTS(options.max_steps >= 0, "max_steps must be >= 0");
  for (const AveragingProcess* process : group) {
    OPINDYN_EXPECTS(process->time() == group[0]->time(),
                    "a group's processes start at one time");
  }
  const std::int64_t interval = options.check_interval > 0
                                    ? options.check_interval
                                    : group[0]->default_check_interval();
  // The group indexes of the processes still running, and those
  // processes and their rngs, in group order.
  std::vector<std::size_t> live(group.size());
  std::iota(live.begin(), live.end(), std::size_t{0});
  std::vector<AveragingProcess*> processes;
  std::vector<Rng*> live_rngs;
  std::int64_t elapsed = 0;
  std::int64_t steps = 0;  // of the processes that left
  std::int64_t lane_steps = 0;
  while (true) {
    processes.clear();
    live_rngs.clear();
    std::size_t kept = 0;
    for (const std::size_t i : live) {
      checkpoint(i);
      if (stop(i)) {
        steps += elapsed;
        continue;
      }
      live[kept++] = i;
      processes.push_back(group[i]);
      live_rngs.push_back(rngs[i]);
    }
    live.resize(kept);
    if (live.empty() || elapsed == options.max_steps) {
      break;
    }
    // Cooperative cancellation at the burst boundary: one thread_local
    // check per check-interval (never per step), and a cancelled run
    // stops only *between* bursts, so it can never emit bytes differing
    // from a prefix of the uncancelled run.
    cancel::poll();
    const std::int64_t burst = std::min(interval, options.max_steps - elapsed);
    lane_steps +=
        AveragingProcess::step_burst_group(processes, live_rngs, burst);
    elapsed += burst;
  }
  // One bump per counter per group, never per step or check; all are
  // deterministic work counts.
  metrics::count("engine.steps",
                 steps + elapsed * static_cast<std::int64_t>(live.size()));
  if (lane_steps > 0) {
    metrics::count("engine.lane_steps", lane_steps);
  }
}

}  // namespace

ConvergenceResult run_until_converged(AveragingProcess& process, Rng& rng,
                                      const ConvergenceOptions& options) {
  AveragingProcess* const group[] = {&process};
  Rng* const rngs[] = {&rng};
  ConvergenceResult result;
  run_until_converged(group, rngs, options, {&result, 1});
  return result;
}

void run_until_converged(std::span<AveragingProcess* const> group,
                         std::span<Rng* const> rngs,
                         const ConvergenceOptions& options,
                         std::span<ConvergenceResult> results) {
  OPINDYN_EXPECTS(options.epsilon > 0.0, "epsilon must be positive");
  OPINDYN_EXPECTS(!group.empty() && results.size() == group.size(),
                  "one result per process");
  const std::int64_t start_time = group[0]->time();
  // The stop decision is each process's own predicate: the default
  // screens in O(1) and confirms with the exact O(n) pass, and voter,
  // DeGroot and Friedkin-Johnsen stop on consensus, spread and z*.
  std::int64_t checks = 0;
  std::int64_t exact_checks = 0;
  run_group(
      group, rngs, options,
      [&](std::size_t i) {
        ++checks;
        const std::int64_t before = group[i]->exact_checks();
        results[i].converged =
            group[i]->converged(options.epsilon, options.use_plain_potential);
        exact_checks += group[i]->exact_checks() - before;
        return results[i].converged;
      },
      [](std::size_t) {});
  std::int64_t unconverged = 0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    const AveragingProcess& process = *group[i];
    ConvergenceResult& result = results[i];
    result.steps = process.time() - start_time;
    result.final_phi = options.use_plain_potential
                           ? process.state().phi_plain_exact()
                           : process.state().phi_exact();
    result.final_value = process.state().weighted_average();
    unconverged += result.converged ? 0 : 1;
  }
  metrics::count("engine.checks", checks);
  metrics::count("engine.exact_checks", exact_checks);
  if (unconverged > 0) {
    metrics::count("engine.unconverged_runs", unconverged);
  }
}

void run_fixed_horizon(std::span<AveragingProcess* const> group,
                       std::span<Rng* const> rngs,
                       const ConvergenceOptions& options,
                       const std::function<void(std::size_t)>& checkpoint) {
  run_group(group, rngs, options, [](std::size_t) { return false; },
            checkpoint);
}

}  // namespace opindyn
