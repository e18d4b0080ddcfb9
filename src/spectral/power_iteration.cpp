#include "src/spectral/power_iteration.h"

#include <cmath>
#include <cstddef>
#include <vector>

#include "src/service/cancel_token.h"
#include "src/support/assert.h"

namespace opindyn {
namespace {

/// The nonzero entries of a row-major matrix, row by row.  The chains
/// solved here have a few successors per state, so one mu Q costs the
/// nonzero count instead of rows x cols.  Skipping a zero entry only
/// skips adding an exact zero, so the product is bit-identical to
/// Matrix::left_multiply.
class SparseRows {
 public:
  explicit SparseRows(const Matrix& m) : cols_(m.cols()) {
    start_.reserve(m.rows() + 1);
    start_.push_back(0);
    for (std::size_t r = 0; r < m.rows(); ++r) {
      const double* row = m.row(r);
      for (std::size_t c = 0; c < cols_; ++c) {
        if (row[c] != 0.0) {
          col_.push_back(c);
          value_.push_back(row[c]);
        }
      }
      start_.push_back(col_.size());
    }
  }

  /// v^T * this.
  std::vector<double> left_multiply(const std::vector<double>& v) const {
    std::vector<double> result(cols_, 0.0);
    for (std::size_t r = 0; r + 1 < start_.size(); ++r) {
      const double a = v[r];
      if (a == 0.0) {
        continue;
      }
      for (std::size_t e = start_[r]; e < start_[r + 1]; ++e) {
        result[col_[e]] += a * value_[e];
      }
    }
    return result;
  }

 private:
  std::size_t cols_;
  std::vector<std::size_t> start_;
  std::vector<std::size_t> col_;
  std::vector<double> value_;
};

}  // namespace

StationaryResult stationary_distribution(const Matrix& transition,
                                         double tolerance,
                                         int max_iterations) {
  OPINDYN_EXPECTS(transition.is_square(),
                  "stationary distribution needs a square matrix");
  OPINDYN_EXPECTS(transition.stochasticity_defect() <= 1e-9,
                  "transition matrix must be row-stochastic");
  const std::size_t n = transition.rows();
  const SparseRows sparse(transition);

  StationaryResult result;
  std::vector<double> mu(n, 1.0 / static_cast<double>(n));
  std::vector<double> next;
  for (int it = 0; it < max_iterations; ++it) {
    // One poll per iteration: a cancelled job stops within one mu Q.
    cancel::poll();
    next = sparse.left_multiply(mu);
    // Renormalise to counteract floating-point mass leakage.
    double total = 0.0;
    for (const double x : next) {
      total += x;
    }
    if (total > 0.0) {
      for (double& x : next) {
        x /= total;
      }
    }
    double step_change = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      step_change += std::abs(next[i] - mu[i]);
    }
    mu.swap(next);
    result.iterations = it + 1;
    if (step_change <= tolerance) {
      result.converged = true;
      break;
    }
  }
  next = sparse.left_multiply(mu);
  double residual = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    residual += std::abs(next[i] - mu[i]);
  }
  result.residual = residual;
  result.distribution = std::move(mu);
  return result;
}

}  // namespace opindyn
