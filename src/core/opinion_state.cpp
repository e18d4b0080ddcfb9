#include "src/core/opinion_state.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/support/assert.h"

namespace opindyn {

OpinionState::OpinionState(const Graph& graph, std::vector<double> initial)
    : graph_(&graph), values_(std::move(initial)) {
  OPINDYN_EXPECTS(values_.size() ==
                      static_cast<std::size_t>(graph.node_count()),
                  "initial value vector size must equal node count");
  stationary_.resize(values_.size());
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    stationary_[static_cast<std::size_t>(u)] = graph.stationary(u);
    max_stationary_ =
        std::max(max_stationary_, stationary_[static_cast<std::size_t>(u)]);
  }
  recompute();
}

double OpinionState::average() const noexcept {
  return sum_ / static_cast<double>(node_count());
}

double OpinionState::phi() const noexcept { return wsum_sq_ - wsum_ * wsum_; }

double OpinionState::phi_exact() const {
  const double center = wsum_;
  double total = 0.0;
  for (NodeId u = 0; u < node_count(); ++u) {
    const double d = values_[static_cast<std::size_t>(u)] - center;
    total += stationary_[static_cast<std::size_t>(u)] * d * d;
  }
  return total;
}

double OpinionState::phi_plain() const noexcept {
  return sum_sq_ - sum_ * sum_ / static_cast<double>(node_count());
}

double OpinionState::phi_plain_exact() const {
  const double center = average();
  double total = 0.0;
  for (const double v : values_) {
    const double d = v - center;
    total += d * d;
  }
  return total;
}

// Why phi_bounds(plain) = {lo, hi} brackets the double the exact pass
// returns, and why phi_certainly_above(eps, plain) == true implies that
// the exact pass returns more than eps.
//
// Notation.  u = 2^-53 is the unit roundoff and g_j = j u / (1 - j u).
// Both potentials have the form sum_i w_i (x_i - c)^2 with weights
// w_i >= 0: w_i = pi_i (the stored doubles) for phi, w_i = 1 for phi_V.
// W = sum_i w_i, S1 = sum_i w_i x_i and S2 = sum_i w_i x_i^2 are exact
// reals over the current stored values; s1, s2 are the running sums
// (wsum_/wsum_sq_ or sum_/sum_sq_).  Each pi_i = d_i / 2m is one
// rounded division, so W is in [1 - u, 1 + u] for phi; W = n for phi_V.
// w_max is max_stationary_ for phi and 1 for phi_V.  K <= 2^20 is
// updates_since_recompute_ and Vs = V (1 + kValueBoundSlack).
//
// (1) The centre.  For every real c, with Q = S2 - S1^2 / W and
//     mu = S1 / W,
//       sum_i w_i (x_i - c)^2 = S2 - 2 c S1 + c^2 W = Q + W (c - mu)^2,
//     so Q <= sum_i w_i (x_i - c)^2 <= Q + W (c - mu)^2 for the exact
//     pass's centre c (wsum_, or sum_/n) whatever its rounding.
// (2) The exact pass.  Each term fl(fl(w d) d), d = fl(x - c), is
//     w (x - c)^2 (1 + t) with |t| <= g_4 (g_3 for phi_V), and a sum of
//     n non-negative terms in any order is within g_{n-1} of its value.
//     So the pass returns a value within g_{n+3} (relative) of
//     sum_i w_i (x_i - c)^2, hence in
//       [(1 - g_{n+3}) Q, (1 + g_{n+3}) (Q + W (c - mu)^2)].
// (3) The magnitude bound.  Every value present since the last
//     recompute() satisfies |x| <= Vs: recompute() stores the exact
//     max |x|, set_value widens it, and a burst kernel writes a rounded
//     convex combination (or copy) of at most m <= n current values,
//     |fl(x)| <= max|y| (1 + u)^(m + 3).  Over K <= 2^20 updates with
//     n < 2^31 that growth is at most (1 + u)^((n + 4) 2^20) <= e^0.25,
//     inside the 1.5 of kValueBoundSlack.  The burst-boundary checks in
//     tests/core/test_convergence_screen.cpp hold every kind to it.
// (4) Drift.  recompute() sums n terms of magnitude <= w_i Vs^2
//     (resp. w_i Vs) with relative error g_{n+1} (resp. g_n).  Each
//     update adds w (x^2 - old^2) (resp. w (x - old)) computed to within
//     4 u w_max Vs^2 (resp. 4 u w_max Vs), and the addition rounds by
//     u |acc| <= u (W Vs^2 + E) (resp. u (W Vs + E)).  Hence
//       |s2 - S2| <= E2 = u Vs^2 ((n + 1) W + K (W + 4 w_max)) (1 + 2^-19)
//       |s1 - S1| <= E1 = u Vs   (n W       + K (W + 4 w_max)) (1 + 2^-19)
//     where the last factor absorbs g_j / (j u) and (1 + u)^K.
// (5) The running formula.  r = phi() (resp. phi_plain()) is within
//     u |r| + 2.01 u s1^2 / W of s2 - s1^2 (resp. s2 - s1^2 / n), and
//     |1 / W - 1| <= 1.01 u for phi.  With (4) and
//     s1^2 - 2 |s1| E1 <= S1^2 <= s1^2 + 2 |s1| E1 + E1^2:
//       |Q - r| <= D,
//       D = E2 + (2 |s1| E1 + E1^2) / W_lo + u |r| + 4 u s1^2 / W_lo.
// (6) The centre offset.  For phi, c = s1 and
//     |s1 - mu| <= |s1 - S1| / W + |S1| |1 / W - 1|; for phi_V,
//     c = fl(s1 / n) and |c - mu| <= (u |s1| + E1) / n.  Both are at
//     most C = (E1 + 2 u (|s1| + E1)) / W_lo, so with (1) and (5)
//       r - D <= Q <= sum_i w_i (x_i - c)^2 <= r + D + W_hi C^2.
// (7) Conclusion.  The code evaluates
//       lo = (r - 2 D) (1 - 2 (n + 4) u) - F,
//       hi = (r + 2 D + 2 W_hi C^2) (1 + 2 (n + 4) u) + F.
//     The doubled D, C^2 term and g_{n+3} cover the O(u^2) terms
//     dropped above and the rounding of this evaluation (each factor is
//     a few operations on non-negative terms, and r + D >= Q >= 0).
//     A negative lo needs no argument: the pass sums non-negative
//     terms.  Gradual underflow can cost at most 2^-1075 absolute per
//     operation in (2) and (4); those operations number fewer than
//     8 (n + K + 4), which is F.  The last rounding of lo and of hi is
//     free: the pass returns a double, and rounding to nearest never
//     crosses a double that the real bound does not.  So
//     lo <= exact <= hi.
//
// The screen.  phi_certainly_above tests lo > eps + 4 u eps: lo <= exact,
// so it implies exact > eps.  For eps >= 2^-920 this is the test the
// screen has always made (lo before F against eps + 4 u eps + F):
// 4 u eps is then normal with F below half its ulp, and an lo above it
// is far too large for F to move.  Every convergence decision and
// engine.exact_checks count is therefore unchanged.
//
// Reads only: the accumulators, the recompute cadence and the check
// schedule are untouched, so every output byte is unchanged.
OpinionState::Bounds OpinionState::phi_bounds(bool plain) const noexcept {
  constexpr double u = 0x1p-53;
  const double n = static_cast<double>(node_count());
  const double k = static_cast<double>(updates_since_recompute_);
  const double w_hi = plain ? n : 1.0 + u;
  const double w_lo = plain ? n : 1.0 - u;
  const double w_max = plain ? 1.0 : max_stationary_;
  const double s1 = std::abs(plain ? sum_ : wsum_);
  const double r = plain ? phi_plain() : phi();
  const double vs = value_bound_ * (1.0 + kValueBoundSlack);
  const double grow = k * (w_hi + 4.0 * w_max);
  const double e2 = u * vs * vs * ((n + 1.0) * w_hi + grow);
  const double e1 = u * vs * (n * w_hi + grow);
  const double drift = e2 + (2.0 * s1 * e1 + e1 * e1) / w_lo +
                       u * std::abs(r) + 4.0 * u * s1 * s1 / w_lo;
  const double centre = (e1 + 2.0 * u * (s1 + e1)) / w_lo;
  const double pass = 2.0 * (n + 4.0) * u;
  const double lo = (r - 2.0 * drift) * (1.0 - pass);
  const double hi =
      (r + 2.0 * drift + 2.0 * w_hi * centre * centre) * (1.0 + pass);
  // F < 2^-1038 is below half an ulp of any double of magnitude
  // 2^-900 or more, where widening by it rounds back to the same
  // value; skipping it there keeps subnormal arithmetic, which many
  // cores run in microcode, off the common path.
  if (std::abs(lo) >= 0x1p-900 && std::abs(hi) >= 0x1p-900) {
    return {lo, hi};
  }
  const double underflow =
      8.0 * (n + k + 4.0) * std::numeric_limits<double>::denorm_min();
  return {lo - underflow, hi + underflow};
}

bool OpinionState::phi_certainly_above(double eps,
                                       bool plain) const noexcept {
  return phi_bounds(plain).lo > eps + eps * 0x1p-51;
}

double OpinionState::discrepancy() const {
  return max_value() - min_value();
}

double OpinionState::min_value() const {
  OPINDYN_EXPECTS(!values_.empty(), "empty state");
  return *std::min_element(values_.begin(), values_.end());
}

double OpinionState::max_value() const {
  OPINDYN_EXPECTS(!values_.empty(), "empty state");
  return *std::max_element(values_.begin(), values_.end());
}

void OpinionState::recompute() {
  sum_ = 0.0;
  sum_sq_ = 0.0;
  wsum_ = 0.0;
  wsum_sq_ = 0.0;
  value_bound_ = 0.0;
  for (NodeId u = 0; u < node_count(); ++u) {
    const double v = values_[static_cast<std::size_t>(u)];
    const double pi = stationary_[static_cast<std::size_t>(u)];
    sum_ += v;
    sum_sq_ += v * v;
    wsum_ += pi * v;
    wsum_sq_ += pi * v * v;
    value_bound_ = std::max(value_bound_, std::abs(v));
  }
  updates_since_recompute_ = 0;
}

}  // namespace opindyn
