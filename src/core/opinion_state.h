// The value vector xi(t) plus O(1)-per-update tracking of every quantity
// the paper's analysis monitors:
//
//   Avg(t)   = (1/n)       sum_u xi_u(t)                       (Eq. 1)
//   M(t)     = sum_u (d_u / 2m) xi_u(t)                        (Eq. 1)
//   phi(t)   = <xi,xi>_pi - <1,xi>_pi^2                        (Eq. 3)
//   phi_V(t) = sum_u xi_u^2 - (sum_u xi_u)^2 / n               (Prop. D.1)
//   K(t)     = max_u xi_u - min_u xi_u (discrepancy)
//
// Only one node changes per process step, so all running sums update in
// O(1).  Floating-point drift is controlled two ways: accumulators are
// rebuilt from scratch every `recompute_interval` updates, and
// `phi_exact()` evaluates the potential in centered two-pass form, which
// does not suffer the catastrophic cancellation of the S2 - S1^2 formula
// near convergence.  `phi_bounds()` bridges the two: it bounds the
// drift rigorously, so an O(1) read brackets the exact pass's result --
// enough to rule out convergence (`phi_certainly_above()`) or to print
// the potential's leading digits without the O(n) pass.  K is read by
// an O(n) scan: its readers (stop rules, per-cell summaries) call it
// once per check, not once per step.
#ifndef OPINDYN_CORE_OPINION_STATE_H
#define OPINDYN_CORE_OPINION_STATE_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/support/assert.h"

namespace opindyn {

class OpinionState {
 public:
  /// `graph` must outlive the state.  `initial.size() == node_count`.
  OpinionState(const Graph& graph, std::vector<double> initial);

  const Graph& graph() const noexcept { return *graph_; }
  NodeId node_count() const noexcept { return graph_->node_count(); }

  double value(NodeId u) const {
    OPINDYN_HOT_EXPECTS(u >= 0 && u < node_count(), "node id out of range");
    return values_[static_cast<std::size_t>(u)];
  }
  const std::vector<double>& values() const noexcept { return values_; }

  /// Replaces the value at u, updating all running statistics.  Inline:
  /// this is the one mutation every process step performs, so the burst
  /// kernels must not pay a call (or, in optimised builds, a range
  /// check) for it.
  void set_value(NodeId u, double x) {
    OPINDYN_HOT_EXPECTS(u >= 0 && u < node_count(), "node id out of range");
    const auto idx = static_cast<std::size_t>(u);
    const double old = values_[idx];
    const double pi = stationary_[idx];
    sum_ += x - old;
    sum_sq_ += x * x - old * old;
    wsum_ += pi * (x - old);
    wsum_sq_ += pi * (x * x - old * old);
    values_[idx] = x;
    value_bound_ = std::max(value_bound_, std::abs(x));
    if (++updates_since_recompute_ >= recompute_interval_) {
      recompute();
    }
  }

  /// Plain average Avg(t).
  double average() const noexcept;
  /// Degree-weighted average M(t) = <1, xi>_pi -- the NodeModel martingale.
  double weighted_average() const noexcept { return wsum_; }
  /// Potential phi (Eq. 3), from running sums (fast, may lose precision
  /// near zero).
  double phi() const noexcept;
  /// Potential phi in centered two-pass form: exact at any magnitude.
  double phi_exact() const;
  /// phi_V of Prop. D.1 (unweighted analogue), from running sums.
  double phi_plain() const noexcept;
  /// phi_V in centered two-pass form.
  double phi_plain_exact() const;
  /// A closed interval certain to contain a double.
  struct Bounds {
    double lo;
    double hi;
  };
  /// O(1) two-sided bound: lo <= phi_exact() <= hi (phi_plain_exact()
  /// when `plain`) for the exact double the O(n) pass would return,
  /// from the running sums widened by a rigorous bound on their
  /// rounding drift (proof in the .cpp).  Reads only.
  Bounds phi_bounds(bool plain) const noexcept;
  /// O(1) screen: true only if phi_exact() (phi_plain_exact() when
  /// `plain`) is proven to exceed eps -- a read of phi_bounds().lo.
  /// False means "undecided", never "converged".  Reads only.
  bool phi_certainly_above(double eps, bool plain) const noexcept;
  /// Bound V on max_u |xi_u| used by the screen: the exact maximum at
  /// the last recompute(), widened by every set_value since.  The burst
  /// kernels write around set_value; every rule they run forms each new
  /// value as a convex combination or a copy of current values, so their
  /// writes stay within V up to rounding, which kValueBoundSlack covers.
  double value_bound() const noexcept { return value_bound_; }
  static constexpr double kValueBoundSlack = 0.5;
  /// sum_u xi_u(t)^2.
  double l2_squared() const noexcept { return sum_sq_; }
  /// Discrepancy K(t) = max - min, and the extrema it spans: O(n)
  /// scans.
  double discrepancy() const;
  double min_value() const;
  double max_value() const;

  /// Rebuilds all accumulators from the value vector.
  void recompute();

  // --- Burst cursor -------------------------------------------------
  // The burst kernels update values by the thousand; going through
  // set_value would reload and re-store every accumulator through the
  // member pointer each step.  A BurstCursor holds the accumulators in
  // locals (registers) for the duration of a burst and performs the
  // EXACT arithmetic of set_value in the exact order, so flushing it
  // back is bit-identical to having called set_value throughout.  The
  // kernel owns the state between begin_burst and end_burst: it writes
  // values through mutable_values() itself and must not call any other
  // accessor in between.
  class BurstCursor {
   public:
    /// Bookkeeping for one value replacement (old -> x at a node with
    /// stationary probability pi), mirroring set_value line for line.
    /// Call BEFORE storing x.  Does NOT count the update: the kernels
    /// track the recompute cadence in bulk via the countdown below, so
    /// the hot loop carries no per-step counter check.
    void update(double pi, double old, double x) noexcept {
      sum_ += x - old;
      sum_sq_ += x * x - old * old;
      wsum_ += pi * (x - old);
      wsum_sq_ += pi * (x * x - old * old);
    }

    /// Updates remaining until the periodic accumulator rebuild is due
    /// -- the same cadence as set_value's tail recompute.  A kernel
    /// chunk of c updates that fits (countdown() > c) settles with one
    /// advance(c); otherwise it checks advance_one() per update, and on
    /// true must make the value vector current, call recompute() on
    /// the state, and restart the cursor (begin_burst again).
    std::int64_t countdown() const noexcept { return countdown_; }
    void advance(std::int64_t n) noexcept { countdown_ -= n; }
    bool advance_one() noexcept { return --countdown_ <= 0; }

    /// The running sums in update() order: sum, sum_sq, wsum, wsum_sq.
    /// The lane kernel (core/lane_kernel.h) holds eight cursors' sums in
    /// vector registers, one lane each, and hands them back here.
    using Sums = std::array<double, 4>;
    Sums sums() const noexcept { return {sum_, sum_sq_, wsum_, wsum_sq_}; }
    void set_sums(const Sums& sums) noexcept {
      sum_ = sums[0];
      sum_sq_ = sums[1];
      wsum_ = sums[2];
      wsum_sq_ = sums[3];
    }

   private:
    friend class OpinionState;
    double sum_ = 0.0;
    double sum_sq_ = 0.0;
    double wsum_ = 0.0;
    double wsum_sq_ = 0.0;
    std::int64_t countdown_ = 0;
  };

  /// Snapshots the accumulators into a register-resident cursor.
  BurstCursor begin_burst() noexcept {
    BurstCursor c;
    c.sum_ = sum_;
    c.sum_sq_ = sum_sq_;
    c.wsum_ = wsum_;
    c.wsum_sq_ = wsum_sq_;
    c.countdown_ = recompute_interval_ - updates_since_recompute_;
    return c;
  }

  /// Writes a cursor's accumulators back.  The value vector must
  /// already hold every value the cursor accounted for.
  void end_burst(const BurstCursor& c) noexcept {
    sum_ = c.sum_;
    sum_sq_ = c.sum_sq_;
    wsum_ = c.wsum_;
    wsum_sq_ = c.wsum_sq_;
    updates_since_recompute_ = recompute_interval_ - c.countdown_;
  }

  /// Raw storage for the burst kernels (paired with begin_burst /
  /// end_burst; all bookkeeping goes through the cursor).
  double* mutable_values() noexcept { return values_.data(); }
  const double* stationary_data() const noexcept {
    return stationary_.data();
  }

 private:
  const Graph* graph_;
  std::vector<double> values_;
  std::vector<double> stationary_;  // pi_u = d_u / 2m, cached per node

  double sum_ = 0.0;       // sum xi
  double sum_sq_ = 0.0;    // sum xi^2
  double wsum_ = 0.0;      // sum pi_u xi_u  (= M(t))
  double wsum_sq_ = 0.0;   // sum pi_u xi_u^2
  double value_bound_ = 0.0;     // V, see value_bound()
  double max_stationary_ = 0.0;  // max_u pi_u

  std::int64_t updates_since_recompute_ = 0;
  static constexpr std::int64_t recompute_interval_ = 1 << 20;
};

}  // namespace opindyn

#endif  // OPINDYN_CORE_OPINION_STATE_H
