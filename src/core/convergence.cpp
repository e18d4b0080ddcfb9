#include "src/core/convergence.h"

#include <algorithm>

#include "src/service/cancel_token.h"
#include "src/support/assert.h"
#include "src/support/metrics.h"

namespace opindyn {

ConvergenceResult run_until_converged(AveragingProcess& process, Rng& rng,
                                      const ConvergenceOptions& options) {
  OPINDYN_EXPECTS(options.epsilon > 0.0, "epsilon must be positive");
  OPINDYN_EXPECTS(options.max_steps >= 0, "max_steps must be >= 0");
  const std::int64_t interval = options.check_interval > 0
                                    ? options.check_interval
                                    : process.default_check_interval();

  ConvergenceResult result;
  const std::int64_t start_time = process.time();
  const std::int64_t start_exact = process.exact_checks();
  // The stop decision is the process's own predicate, asked once before
  // the first burst and once after each.  The default screens in O(1)
  // and confirms with the exact O(n) pass (see convergence.h); the rules
  // that do not stop on phi substitute their own predicate (voter:
  // consensus; DeGroot: spread; Friedkin-Johnsen: distance to z*).
  std::int64_t checks = 1;
  bool done = process.converged(options.epsilon, options.use_plain_potential);
  while (!done && process.time() - start_time < options.max_steps) {
    // Cooperative cancellation at the burst boundary: one thread_local
    // check per check-interval (never per step), and a cancelled run
    // stops only *between* bursts, so it can never emit bytes differing
    // from a prefix of the uncancelled run.
    cancel::poll();
    const std::int64_t burst = std::min(
        interval, options.max_steps - (process.time() - start_time));
    process.step_burst(rng, burst);
    ++checks;
    done = process.converged(options.epsilon, options.use_plain_potential);
  }
  result.steps = process.time() - start_time;
  result.converged = done;
  result.final_phi = options.use_plain_potential
                         ? process.state().phi_plain_exact()
                         : process.state().phi_exact();
  result.final_value = process.state().weighted_average();
  // Observability: one bump per counter per converged run (never per
  // step or check); a thread_local check + return when no metrics scope
  // is active.  All three are deterministic work counts.
  metrics::count("engine.steps", result.steps);
  metrics::count("engine.checks", checks);
  metrics::count("engine.exact_checks", process.exact_checks() - start_exact);
  if (!result.converged) {
    metrics::count("engine.unconverged_runs", 1);
  }
  return result;
}

}  // namespace opindyn
