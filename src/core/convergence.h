// Runs a process until its own stop rule, AveragingProcess::converged,
// holds -- eps-convergence phi(xi(t)) <= eps (Section 4) unless the rule
// overrides it -- checking every `check_interval` steps (0: the
// process's default_check_interval()).  Each phi check is
// screen-then-exact: OpinionState::phi_certainly_above reads the O(1)
// running accumulators and subtracts a rigorous bound on their rounding
// drift; when that proves phi > eps the check is settled, and only
// otherwise does the O(n) centered two-pass recomputation decide.  The
// screen never declares convergence, so every stop -- and the reported
// hitting time -- is the exact pass's, never an artefact of drift.
// Checks and exact passes are reported as engine.checks and
// engine.exact_checks.
//
// The loop runs a group of processes at once: every process of the
// group is checked at each interval and leaves the group when it
// converges, while the rest step on together
// (AveragingProcess::step_burst_group), in lanes where the lane kernel
// covers them.  No process sees another's state or stream, so each
// result equals that of running the process alone; the one-process call
// is a group of one.  Process-steps taken in lanes are reported as
// engine.lane_steps.
#ifndef OPINDYN_CORE_CONVERGENCE_H
#define OPINDYN_CORE_CONVERGENCE_H

#include <cstdint>
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

}  // namespace opindyn

#endif  // OPINDYN_CORE_CONVERGENCE_H
