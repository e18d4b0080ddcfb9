// Abstract interface shared by the two averaging processes of the paper
// (NodeModel, Definition 2.1; EdgeModel, Definition 2.3).  The experiment
// harness drives either through this interface; `step_recorded`/`apply`
// expose the selection sequence chi for the duality machinery of
// Section 5.
#ifndef OPINDYN_CORE_PROCESS_H
#define OPINDYN_CORE_PROCESS_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>

#include "src/core/lane_kernel.h"
#include "src/core/opinion_state.h"
#include "src/core/selection.h"
#include "src/graph/graph.h"
#include "src/support/rng.h"

namespace opindyn {

class AveragingProcess {
 public:
  virtual ~AveragingProcess() = default;

  AveragingProcess(const AveragingProcess&) = delete;
  AveragingProcess& operator=(const AveragingProcess&) = delete;

  /// Advances the process one time step using `rng` for all choices.
  void step(Rng& rng);

  /// Advances `n_steps` time steps.  Contract: consumes `rng` exactly as
  /// `n_steps` calls to step() would and leaves bit-identical state.
  /// Every rule implements it as its own devirtualized, allocation-free
  /// loop, so every long-horizon harness (run_until_converged, the
  /// engine's replica bodies) should step through this.
  virtual void step_burst(Rng& rng, std::int64_t n_steps) = 0;

  /// Advances every process of `group` `n_steps` steps, process i with
  /// *rngs[i]: the result is exactly that of group[i]->step_burst(
  /// *rngs[i], n_steps) for each i.  When lanes are enabled and
  /// lanes::kMinLanes to lanes::kMaxLanes processes share one graph and
  /// a lane shape (lane_shape()), one lane burst advances them all;
  /// otherwise each steps alone.  Returns the process-steps taken in
  /// lanes.
  static std::int64_t step_burst_group(
      std::span<AveragingProcess* const> group,
      std::span<Rng* const> rngs, std::int64_t n_steps);

  /// How this process steps in lockstep with others of its shape
  /// (core/lane_kernel.h); Rule::none, the default, steps it alone.
  virtual LaneShape lane_shape() const { return {}; }

  /// Advances one step and returns the selection chi(t) that was made
  /// (empty sample = lazy no-op).  This is the recorded slow path the
  /// Section-5 duality replay machinery consumes.
  virtual NodeSelection step_recorded(Rng& rng) = 0;

  /// Applies a fixed selection deterministically (replay; Lemma 5.2).
  void apply(const NodeSelection& selection);

  /// Whether the process has reached its stopping condition at the
  /// current state.  The default is the paper's potential criterion
  /// phi(xi(t)) <= eps, decided by the exact centered recomputation
  /// (pi-weighted, or plain phi_V when `use_plain_potential` is set);
  /// an O(1) certified screen (OpinionState::phi_certainly_above) skips
  /// that O(n) pass whenever it proves phi > eps.  Discrete-opinion
  /// rules override this with their own predicate (the voter model
  /// stops at distinct-opinion count 1).
  virtual bool converged(double epsilon, bool use_plain_potential) const;

  /// Steps between two converged() checks when the caller leaves the
  /// interval to the process (ConvergenceOptions::check_interval = 0).
  /// The default, max(1, n/4), keeps the O(n) exact pass to O(1) per
  /// step for the asynchronous rules; the synchronous rounds (DeGroot,
  /// Friedkin-Johnsen) already cost O(m) each and check after every one,
  /// and the voter model's O(1) consensus check runs after every step.
  virtual std::int64_t default_check_interval() const {
    return std::max<std::int64_t>(1, graph().node_count() / 4);
  }

  /// How many O(n) exact potential passes converged() has run so far;
  /// run_until_converged reports its per-run delta as
  /// engine.exact_checks.
  std::int64_t exact_checks() const noexcept { return exact_checks_; }

  /// Number of steps taken so far (t).
  std::int64_t time() const noexcept { return time_; }

  const Graph& graph() const noexcept { return state_.graph(); }
  const OpinionState& state() const noexcept { return state_; }
  OpinionState& mutable_state() noexcept { return state_; }

  /// Weight (1 - alpha) given to the sampled neighbours.
  double alpha() const noexcept { return alpha_; }

 protected:
  /// `graph` must outlive the process.
  AveragingProcess(const Graph& graph, std::vector<double> initial,
                   double alpha);

  /// The update rule applied by apply(); the base implements the paper's
  /// mean rule xi_u <- alpha*xi_u + (1-alpha)*mean(sample).  Other rule
  /// families (voter copy, gossip two-sided average, median) override
  /// this so replay through apply() stays faithful to their dynamics.
  virtual void apply_update(const NodeSelection& selection);

  /// Bulk time advance for step_burst overrides (lazy no-ops count too).
  void advance_time(std::int64_t n) noexcept { time_ += n; }

 private:
  OpinionState state_;
  double alpha_;
  std::int64_t time_ = 0;
  // A work counter, not state: converged() stays a logical const read.
  mutable std::int64_t exact_checks_ = 0;
};

}  // namespace opindyn

#endif  // OPINDYN_CORE_PROCESS_H
