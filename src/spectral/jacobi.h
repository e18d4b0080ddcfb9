// Cyclic Jacobi eigenvalue algorithm for dense symmetric matrices.
// Quadratically convergent, unconditionally stable, and accurate to near
// machine precision -- the reference solver for every spectral quantity in
// the experiments.
//
// Storage: the solver works on a raw row-major copy of A^T and keeps the
// eigenvector matrix transposed (V^T), so the two rows and two columns a
// rotation (p, q) touches are contiguous rows.  Both copies use a row
// stride of an odd number of 64-byte lines, so the mirror's column walks
// spread over every cache set instead of aliasing into a few.
//
// Mirror rule: each rotation rewrites rows p and q whole, but mirrors
// them into columns p and q only for rows i > p.  While pivot p is
// active the sweep reads only row p and rows q > p, so rows i <= p are
// not read again this sweep.  The full mirror stores both cells of a
// pair with the same value on every write, and the lower cell a[c][r]
// (c > r) still receives every such write here, so it is always current
// even when the upper cell a[r][c] has gone stale.  At the end of each
// sweep the stale upper cells of every rotated column are copied from
// their lower partners (O(n^2) per sweep against O(n^3) of work).  The
// restore touches only cells the full mirror would have written, so
// upper cells no rotation reached keep their input values.
//
// Identity guarantee: the rotations, their order and every
// floating-point expression are those of the textbook element-wise
// formulation (A(i, p), V(i, p) updated down columns), and every cell a
// rotation reads holds the value that formulation holds there, so values
// and vectors are bit-identical to it for every input and every
// max_sweeps, including matrices symmetric only within the 1e-9
// tolerance (tests/spectral/test_jacobi_oracle.cpp keeps that
// formulation as the oracle).  Each sweep polls the ambient cancel token
// (cancel::poll), so a serve deadline stops a dense solve within one
// O(n^3) sweep.
#ifndef OPINDYN_SPECTRAL_JACOBI_H
#define OPINDYN_SPECTRAL_JACOBI_H

#include <vector>

#include "src/spectral/matrix.h"

namespace opindyn {

struct EigenDecomposition {
  /// Eigenvalues sorted ascending.
  std::vector<double> values;
  /// eigenvector k (normalised, column) corresponding to values[k].
  std::vector<std::vector<double>> vectors;
};

/// Full eigendecomposition of a symmetric matrix.
/// Throws ContractError if the matrix is not square or not symmetric
/// (defect > 1e-9).
EigenDecomposition jacobi_eigen(const Matrix& symmetric,
                                double tolerance = 1e-13,
                                int max_sweeps = 100);

}  // namespace opindyn

#endif  // OPINDYN_SPECTRAL_JACOBI_H
