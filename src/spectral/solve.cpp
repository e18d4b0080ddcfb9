#include "src/spectral/solve.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/service/cancel_token.h"
#include "src/support/assert.h"

namespace opindyn {

std::vector<double> solve_dense(Matrix a, std::vector<double> b) {
  OPINDYN_EXPECTS(a.is_square(), "solve needs a square matrix");
  OPINDYN_EXPECTS(b.size() == a.rows(), "dimension mismatch");
  const std::size_t n = a.rows();

  for (std::size_t col = 0; col < n; ++col) {
    // One poll per pivot column: a cancelled job stops within O(n^2).
    cancel::poll();
    // Partial pivoting.
    std::size_t pivot = col;
    double pivot_abs = std::abs(a.row(col)[col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double candidate = std::abs(a.row(r)[col]);
      if (candidate > pivot_abs) {
        pivot = r;
        pivot_abs = candidate;
      }
    }
    if (pivot_abs < 1e-13) {
      throw std::runtime_error("solve_dense: matrix is singular");
    }
    double* const pivot_row = a.row(col);
    if (pivot != col) {
      std::swap_ranges(pivot_row, pivot_row + n, a.row(pivot));
      std::swap(b[col], b[pivot]);
    }
    const double diag = pivot_row[col];
    for (std::size_t r = col + 1; r < n; ++r) {
      double* const row = a.row(r);
      const double factor = row[col] / diag;
      if (factor == 0.0) {
        continue;
      }
      for (std::size_t c = col; c < n; ++c) {
        row[c] -= factor * pivot_row[c];
      }
      b[r] -= factor * b[col];
    }
  }
  // Back substitution.
  std::vector<double> x(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    const double* const row = a.row(ri);
    double sum = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) {
      sum -= row[c] * x[c];
    }
    x[ri] = sum / row[ri];
  }
  return x;
}

}  // namespace opindyn
