// The one loop that advances processes, with two stop rules:
// run_until_converged stops each process of a group when its own rule,
// AveragingProcess::converged, holds -- eps-convergence phi(xi(t)) <= eps
// (Section 4) unless the rule overrides it -- asked every
// `check_interval` steps (0: the process's default_check_interval());
// run_fixed_horizon runs the same loop with a rule that never holds, so
// the fixed-time reads (M(t), Var(M(t)), the (M, phi) trajectory) step
// exactly as the T_eps runs do.  Each phi check is screen-then-exact:
// OpinionState::phi_certainly_above reads the O(1) running accumulators
// less a rigorous bound on their rounding drift, and only when that
// cannot prove phi > eps does the O(n) centered two-pass recomputation
// decide, so every stop -- and the reported hitting time -- is the exact
// pass's.  Checks and exact passes are counted as engine.checks and
// engine.exact_checks.  Processes leave the group as they stop, while the
// rest step on together (AveragingProcess::step_burst_group), in lanes
// where the lane kernel covers them (counted as engine.lane_steps).  No
// process sees another's state or stream, so each result equals that of
// running the process alone; the one-process call is a group of one.
#ifndef OPINDYN_CORE_CONVERGENCE_H
#define OPINDYN_CORE_CONVERGENCE_H

#include <cstdint>
#include <functional>
#include <span>

#include "src/core/process.h"
#include "src/support/rng.h"

namespace opindyn {

struct ConvergenceResult {
  /// First checked time at which converged() held (granularity =
  /// check_interval).
  std::int64_t steps = 0;
  bool converged = false;
  double final_phi = 0.0;
  /// The common value F (read as the degree-weighted average M, which is
  /// the NodeModel martingale and equals every node's value in the limit;
  /// for regular graphs M = Avg).
  double final_value = 0.0;
};

struct ConvergenceOptions {
  double epsilon = 1e-10;
  std::int64_t max_steps = 1'000'000'000;
  /// How often converged() is asked; 0 lets the process choose
  /// (default_check_interval: max(1, n/4), one step for voter, one round
  /// for DeGroot / FJ).
  std::int64_t check_interval = 0;
  /// Use the plain potential phi_V instead of the pi-weighted phi
  /// (the EdgeModel analysis of Prop. D.1 uses phi_V).
  bool use_plain_potential = false;
};

ConvergenceResult run_until_converged(AveragingProcess& process, Rng& rng,
                                      const ConvergenceOptions& options);

/// The group form: process i steps with *rngs[i] and its result lands in
/// results[i].  The processes must share one graph and one kind (the
/// check interval is the first process's default_check_interval() when
/// options.check_interval is 0) and start at one time.
void run_until_converged(std::span<AveragingProcess* const> group,
                         std::span<Rng* const> rngs,
                         const ConvergenceOptions& options,
                         std::span<ConvergenceResult> results);

/// The fixed-horizon form: checkpoint(i) sees process i at t = 0, every
/// check interval and options.max_steps, which may cut the last burst
/// short (epsilon and use_plain_potential are not read).
void run_fixed_horizon(std::span<AveragingProcess* const> group,
                       std::span<Rng* const> rngs,
                       const ConvergenceOptions& options,
                       const std::function<void(std::size_t)>& checkpoint);

}  // namespace opindyn

#endif  // OPINDYN_CORE_CONVERGENCE_H
