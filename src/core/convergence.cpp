#include "src/core/convergence.h"

#include <algorithm>
#include <vector>

#include "src/service/cancel_token.h"
#include "src/support/assert.h"
#include "src/support/metrics.h"

namespace opindyn {

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
  OPINDYN_EXPECTS(options.max_steps >= 0, "max_steps must be >= 0");
  OPINDYN_EXPECTS(!group.empty() && rngs.size() == group.size() &&
                      results.size() == group.size(),
                  "one rng and one result per process");
  const std::int64_t interval = options.check_interval > 0
                                    ? options.check_interval
                                    : group[0]->default_check_interval();
  const std::int64_t start_time = group[0]->time();
  std::vector<std::int64_t> start_exact(group.size());
  // The processes still running, and their rngs, in group order.
  std::vector<AveragingProcess*> live;
  std::vector<Rng*> live_rngs;
  std::vector<std::size_t> live_index;
  // The stop decision is each process's own predicate, asked once before
  // the first burst and once after each.  The default screens in O(1)
  // and confirms with the exact O(n) pass (see convergence.h); the rules
  // that do not stop on phi substitute their own predicate (voter:
  // consensus; DeGroot: spread; Friedkin-Johnsen: distance to z*).
  std::int64_t checks = 0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    OPINDYN_EXPECTS(group[i]->time() == start_time,
                    "a group's processes start at one time");
    start_exact[i] = group[i]->exact_checks();
    ++checks;
    results[i].converged =
        group[i]->converged(options.epsilon, options.use_plain_potential);
    if (!results[i].converged) {
      live.push_back(group[i]);
      live_rngs.push_back(rngs[i]);
      live_index.push_back(i);
    }
  }
  std::int64_t elapsed = 0;
  std::int64_t lane_steps = 0;
  while (!live.empty() && elapsed < options.max_steps) {
    // Cooperative cancellation at the burst boundary: one thread_local
    // check per check-interval (never per step), and a cancelled run
    // stops only *between* bursts, so it can never emit bytes differing
    // from a prefix of the uncancelled run.
    cancel::poll();
    const std::int64_t burst = std::min(interval, options.max_steps - elapsed);
    lane_steps +=
        AveragingProcess::step_burst_group(live, live_rngs, burst);
    elapsed += burst;
    std::size_t kept = 0;
    for (std::size_t j = 0; j < live.size(); ++j) {
      ++checks;
      if (live[j]->converged(options.epsilon, options.use_plain_potential)) {
        results[live_index[j]].converged = true;
        continue;
      }
      live[kept] = live[j];
      live_rngs[kept] = live_rngs[j];
      live_index[kept] = live_index[j];
      ++kept;
    }
    live.resize(kept);
    live_rngs.resize(kept);
    live_index.resize(kept);
  }
  std::int64_t steps = 0;
  std::int64_t exact_checks = 0;
  std::int64_t unconverged = 0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    const AveragingProcess& process = *group[i];
    ConvergenceResult& result = results[i];
    result.steps = process.time() - start_time;
    result.final_phi = options.use_plain_potential
                           ? process.state().phi_plain_exact()
                           : process.state().phi_exact();
    result.final_value = process.state().weighted_average();
    steps += result.steps;
    exact_checks += process.exact_checks() - start_exact[i];
    unconverged += result.converged ? 0 : 1;
  }
  // Observability: one bump per counter per group (never per step or
  // check); a thread_local check + return when no metrics scope is
  // active.  All of them are deterministic work counts.
  metrics::count("engine.steps", steps);
  metrics::count("engine.checks", checks);
  metrics::count("engine.exact_checks", exact_checks);
  if (unconverged > 0) {
    metrics::count("engine.unconverged_runs", unconverged);
  }
  if (lane_steps > 0) {
    metrics::count("engine.lane_steps", lane_steps);
  }
}

}  // namespace opindyn
