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
// only row q into column q, and only for rows i > p.  While pivot p is
// active the sweep reads only row p and rows q > p, so rows i <= p are
// not read again this sweep.  Column p's cells below the diagonal are
// read only as the pivot element apq = A(p, q) of a later rotation of
// the same pivot, and from the pivot's first executed rotation on the
// textbook mirror keeps them equal to row p, so that rotation reads
// row_p[q] instead and column p is written once, a[i][p] = row_p[i]
// for i > p, when the pivot's q loop ends (only if a rotation ran).
// Before the first executed rotation apq still comes from the column
// (row_q[p]), because an input symmetric only within the 1e-9 tolerance
// can hold a different value in row p.  The full mirror stores both
// cells of a pair with the same value on every write, and the lower
// cell a[c][r] (c > r) receives the last such write before anything
// reads it, so it is current whenever it is read even when the upper
// cell a[r][c] has gone stale.  At the end of each sweep the stale upper
// cells of every rotated column are copied from their lower partners
// (O(n^2) per sweep against O(n^3) of work).  The restore touches only
// cells the full mirror would have written, so upper cells no rotation
// reached keep their input values.
//
// Eigenvalues only: jacobi_eigenvalues runs the same sweeps without
// V^T -- no n x n eigenvector matrix is allocated or rotated, about a
// third of the work of a full solve.  The rotation parameters depend
// only on `a`, which never reads V, so its values are those of
// jacobi_eigen bit for bit.
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

/// The eigenvalues of jacobi_eigen(symmetric, tolerance, max_sweeps),
/// sorted ascending and bit-identical to its `values`, without
/// computing eigenvectors.  Same contract checks.
std::vector<double> jacobi_eigenvalues(const Matrix& symmetric,
                                       double tolerance = 1e-13,
                                       int max_sweeps = 100);

}  // namespace opindyn

#endif  // OPINDYN_SPECTRAL_JACOBI_H
