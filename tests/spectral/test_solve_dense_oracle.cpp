// Bit-identity of solve_dense against the element-wise Gaussian
// elimination it replaced.  reference_solve_dense below is that code kept
// verbatim (Matrix::at everywhere); the production solve runs the same
// pivot choices, row swaps and updates on hoisted row pointers, so every
// solution component must match to the last bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "src/graph/generators.h"
#include "src/service/cancel_token.h"
#include "src/spectral/solve.h"
#include "src/spectral/spectra.h"
#include "src/support/assert.h"
#include "src/support/rng.h"

namespace opindyn {
namespace {

// The pre-rewrite solve_dense, verbatim.
std::vector<double> reference_solve_dense(Matrix a, std::vector<double> b) {
  OPINDYN_EXPECTS(a.is_square(), "solve needs a square matrix");
  OPINDYN_EXPECTS(b.size() == a.rows(), "dimension mismatch");
  const std::size_t n = a.rows();

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a.at(r, col)) > std::abs(a.at(pivot, col))) {
        pivot = r;
      }
    }
    if (std::abs(a.at(pivot, col)) < 1e-13) {
      throw std::runtime_error("solve_dense: matrix is singular");
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(a.at(col, c), a.at(pivot, c));
      }
      std::swap(b[col], b[pivot]);
    }
    const double diag = a.at(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a.at(r, col) / diag;
      if (factor == 0.0) {
        continue;
      }
      for (std::size_t c = col; c < n; ++c) {
        a.at(r, c) -= factor * a.at(col, c);
      }
      b[r] -= factor * b[col];
    }
  }
  // Back substitution.
  std::vector<double> x(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double sum = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) {
      sum -= a.at(ri, c) * x[c];
    }
    x[ri] = sum / a.at(ri, ri);
  }
  return x;
}

void expect_bitwise_equal(const Matrix& a, const std::vector<double>& b,
                          const std::string& what) {
  const std::vector<double> expected = reference_solve_dense(a, b);
  const std::vector<double> actual = solve_dense(a, b);
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(actual[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << what << ": component " << i;
  }
}

std::vector<double> gaussian_vector(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.next_gaussian();
  }
  return v;
}

/// I - lambda W with W the simple-walk matrix: the Friedkin-Johnsen
/// equilibrium system (core/friedkin_johnsen.cpp).
Matrix friedkin_johnsen_system(const Graph& g, double lambda) {
  Matrix a = walk_matrix(g);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      a.at(r, c) = (r == c ? 1.0 : 0.0) - lambda * a.at(r, c);
    }
  }
  return a;
}

TEST(SolveDenseOracle, FriedkinJohnsenSystems) {
  Rng rng(17);
  const Graph graphs[] = {gen::petersen(), gen::random_regular(rng, 64, 4),
                          gen::preferential_attachment(rng, 80, 2),
                          gen::star(12)};
  for (const Graph& g : graphs) {
    for (const double lambda : {0.3, 0.7, 0.99}) {
      const Matrix a = friedkin_johnsen_system(g, lambda);
      expect_bitwise_equal(a, gaussian_vector(rng, a.rows()),
                           g.name() + " lambda=" + std::to_string(lambda));
    }
  }
}

TEST(SolveDenseOracle, DenseSystemsThatPivotEveryColumn) {
  // Gaussian entries with a small diagonal: partial pivoting swaps rows
  // on nearly every column.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    for (const std::size_t n : {1u, 2u, 7u, 50u}) {
      Matrix a(n, n, 0.0);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          a.at(r, c) = r == c ? 1e-3 * rng.next_gaussian()
                              : rng.next_gaussian();
        }
      }
      if (n == 1) {
        a.at(0, 0) = 2.5;
      }
      expect_bitwise_equal(a, gaussian_vector(rng, n),
                           "seed=" + std::to_string(seed) +
                               " n=" + std::to_string(n));
    }
  }
}

TEST(SolveDenseOracle, ExactZeroFactorsAreSkipped) {
  // Upper-triangular with exact zeros below the diagonal: every
  // elimination factor is 0 and the row update is skipped.
  Rng rng(23);
  Matrix a(10, 10, 0.0);
  for (std::size_t r = 0; r < 10; ++r) {
    for (std::size_t c = r; c < 10; ++c) {
      a.at(r, c) = r == c ? 5.0 + rng.next_double() : rng.next_gaussian();
    }
  }
  expect_bitwise_equal(a, gaussian_vector(rng, 10), "upper triangular");
}

TEST(SolveDenseOracle, SingularAndMismatchedInputsThrowTheSameErrors) {
  Matrix singular(3, 3, 1.0);
  try {
    solve_dense(singular, {1.0, 2.0, 3.0});
    FAIL() << "expected a singular-matrix error";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "solve_dense: matrix is singular");
  }
  EXPECT_THROW(solve_dense(Matrix(2, 3, 1.0), {1.0, 2.0}), ContractError);
  EXPECT_THROW(solve_dense(Matrix(2, 2, 1.0), {1.0}), ContractError);
}

TEST(SolveDenseOracle, PollsTheAmbientCancelToken) {
  CancelToken token;
  token.cancel("test");
  const CancelScope scope(&token);
  EXPECT_THROW(solve_dense(friedkin_johnsen_system(gen::petersen(), 0.5),
                           std::vector<double>(10, 1.0)),
               CancelledError);
}

}  // namespace
}  // namespace opindyn
