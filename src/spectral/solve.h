// Dense linear solves (Gaussian elimination with partial pivoting).
// Used by the Friedkin-Johnsen baseline to compute its exact equilibrium
// (I - lambda W)^{-1} (1 - lambda) s for comparison with iteration.
#ifndef OPINDYN_SPECTRAL_SOLVE_H
#define OPINDYN_SPECTRAL_SOLVE_H

#include <vector>

#include "src/spectral/matrix.h"

namespace opindyn {

/// Solves A x = b for square non-singular A.  Throws ContractError on
/// dimension mismatch and std::runtime_error on (numerical) singularity.
/// Works on raw row pointers (bit-identical to the element-wise
/// formulation kept in tests/spectral/test_solve_dense_oracle.cpp) and
/// polls the ambient cancel token once per pivot column.
std::vector<double> solve_dense(Matrix a, std::vector<double> b);

}  // namespace opindyn

#endif  // OPINDYN_SPECTRAL_SOLVE_H
