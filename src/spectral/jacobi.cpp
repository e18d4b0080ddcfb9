#include "src/spectral/jacobi.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/service/cancel_token.h"
#include "src/support/assert.h"

namespace opindyn {
namespace {

/// Row stride of the working copies: n rounded up to whole 64-byte lines,
/// plus one line if the line count is even.  An odd line count spreads a
/// column walk over every L1 set, where a stride of n doubles sends all
/// rows to 4 of the 64 sets at n = 128 (and plain n + 8 padding makes the
/// stride a power of two at n = 120 and 248).
std::size_t leading_dimension(std::size_t n) {
  constexpr std::size_t kLine = 64 / sizeof(double);
  std::size_t lines = (n + kLine - 1) / kLine;
  if (lines % 2 == 0) {
    ++lines;
  }
  return lines * kLine;
}

/// The sweeps behind jacobi_eigen and jacobi_eigenvalues.  Without
/// `with_vectors` no V^T is allocated or rotated and `vectors` stays
/// empty; the rotations of `a`, and so the values, are the same.
EigenDecomposition jacobi_solve(const Matrix& symmetric, double tolerance,
                                int max_sweeps, bool with_vectors) {
  OPINDYN_EXPECTS(symmetric.is_square(), "eigen solver needs square matrix");
  OPINDYN_EXPECTS(symmetric.symmetry_defect() <= 1e-9,
                  "eigen solver needs a symmetric matrix");
  const std::size_t n = symmetric.rows();
  const std::size_t ld = leading_dimension(n);

  // a[c * ld + r] = A(r, c): the working copy is A transposed, so the
  // columns p and q a rotation reads are the contiguous rows p and q of
  // `a`.  Rotations write rows and columns p, q symmetrically, so this
  // differs from a plain copy only in which triangle is read first when
  // the input is symmetric merely within the 1e-9 tolerance -- and there
  // it reads exactly the elements the column-wise formulation reads.
  std::vector<double> a(n * ld);
  for (std::size_t r = 0; r < n; ++r) {
    const double* source = symmetric.row(r);
    for (std::size_t c = 0; c < n; ++c) {
      a[c * ld + r] = source[c];
    }
  }
  // vt = V^T: row k is eigenvector column k, so the rotation's two
  // eigenvector columns are contiguous too.
  std::vector<double> vt;
  if (with_vectors) {
    vt.assign(n * ld, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      vt[i * ld + i] = 1.0;
    }
  }
  // stale_below[c]: the pivot p of this sweep's last rotation through
  // column c, so p <= c.  The upper cells a[r][c], r < p, missed the
  // mirror.
  std::vector<std::size_t> stale_below(n, 0);

  auto off_diagonal_norm = [&]() {
    double sum = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a[q * ld + p];
        sum += apq * apq;
      }
    }
    return std::sqrt(sum);
  };

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    // One poll per sweep: a cancelled job stops within one O(n^3) sweep.
    cancel::poll();
    if (off_diagonal_norm() <= tolerance) {
      break;
    }
    for (std::size_t p = 0; p < n; ++p) {
      double* const row_p = a.data() + p * ld;
      // Whether a rotation of this pivot has run.  Until then apq is
      // the lower cell A(p, q) of the input or of earlier pivots; from
      // then on the full mirror would have copied row p into column p,
      // so row p holds the same value and column p is written once,
      // after the q loop.
      bool rotated = false;
      for (std::size_t q = p + 1; q < n; ++q) {
        double* const row_q = a.data() + q * ld;
        const double apq = rotated ? row_p[q] : row_q[p];
        if (std::abs(apq) <= tolerance * 1e-3) {
          continue;
        }
        rotated = true;
        const double app = row_p[p];
        const double aqq = row_q[q];
        const double theta = (aqq - app) / (2.0 * apq);
        // Rutishauser's stable rotation parameters.
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) +
                          std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        const double tau = s / (1.0 + c);

        row_p[p] = app - t * apq;
        row_q[q] = aqq + t * apq;
        row_q[p] = 0.0;
        row_p[q] = 0.0;
        // Rows p and q for every i != p, q, in three branch-free runs.
        const auto rotate = [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            const double aip = row_p[i];
            const double aiq = row_q[i];
            row_p[i] = aip - s * (aiq + tau * aip);
            row_q[i] = aiq + s * (aip - tau * aiq);
          }
        };
        rotate(0, p);
        rotate(p + 1, q);
        rotate(q + 1, n);
        // Mirror into column q of the rows this pivot's later rotations
        // read (i > p; at i = q this rewrites the diagonal with itself).
        // Rows i < p are not read again this sweep and wait for the
        // restore below.
        for (std::size_t i = p + 1; i < n; ++i) {
          a[i * ld + q] = row_q[i];
        }
        stale_below[q] = p;
        if (with_vectors) {
          double* const v_p = vt.data() + p * ld;
          double* const v_q = vt.data() + q * ld;
          for (std::size_t i = 0; i < n; ++i) {
            const double vip = v_p[i];
            const double viq = v_q[i];
            v_p[i] = vip - s * (viq + tau * vip);
            v_q[i] = viq + s * (vip - tau * viq);
          }
        }
      }
      // Column p's deferred mirror: the values the per-rotation mirror
      // would have left there after the pivot's last rotation.
      if (rotated) {
        for (std::size_t i = p + 1; i < n; ++i) {
          a[i * ld + p] = row_p[i];
        }
        stale_below[p] = p;
      }
    }
    // Restore the upper cells the sweep left stale from their lower
    // partners, which every write kept current.
    for (std::size_t c = 0; c < n; ++c) {
      for (std::size_t r = 0; r < stale_below[c]; ++r) {
        a[r * ld + c] = a[c * ld + r];
      }
      stale_below[c] = 0;
    }
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return a[x * ld + x] < a[y * ld + y];
  });

  EigenDecomposition result;
  result.values.reserve(n);
  for (const std::size_t k : order) {
    result.values.push_back(a[k * ld + k]);
  }
  if (with_vectors) {
    result.vectors.reserve(n);
    for (const std::size_t k : order) {
      const double* const v_k = vt.data() + k * ld;
      std::vector<double> column(v_k, v_k + n);
      const double len = norm2(column);
      if (len > 0.0) {
        scale(column, 1.0 / len);
      }
      result.vectors.push_back(std::move(column));
    }
  }
  return result;
}

}  // namespace

EigenDecomposition jacobi_eigen(const Matrix& symmetric, double tolerance,
                                int max_sweeps) {
  return jacobi_solve(symmetric, tolerance, max_sweeps, true);
}

std::vector<double> jacobi_eigenvalues(const Matrix& symmetric,
                                       double tolerance, int max_sweeps) {
  return jacobi_solve(symmetric, tolerance, max_sweeps, false).values;
}

}  // namespace opindyn
