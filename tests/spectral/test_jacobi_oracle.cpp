// Bit-identity of jacobi_eigen against the textbook element-wise
// formulation it replaced.  reference_jacobi_eigen below is that
// formulation kept verbatim (Matrix::at everywhere, A and V updated
// down columns); the production solver applies the same rotations in the
// same order with the same expressions on a transposed raw copy, so every
// eigenvalue and every eigenvector component must match to the last bit
// -- not merely to a tolerance.  Each case also pins the code path it
// exercises: regular walk and Laplacian matrices, an irregular symmetrised
// walk matrix, zero sweeps, the exact-zero skip branch, a Lanczos
// tridiagonal, an input symmetric only within the 1e-9 contract, row
// strides with odd and even line counts, and runs capped after one to
// three sweeps (whose state shows whether the end-of-sweep restore of
// the deferred mirror is exact).  The EigenvaluesOnly cases hold
// jacobi_eigenvalues to the oracle's values on the same inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/generators.h"
#include "src/service/cancel_token.h"
#include "src/spectral/jacobi.h"
#include "src/spectral/spectra.h"
#include "src/support/assert.h"
#include "src/support/rng.h"

namespace opindyn {
namespace {

// The pre-rewrite jacobi_eigen, verbatim.
EigenDecomposition reference_jacobi_eigen(const Matrix& symmetric,
                                          double tolerance = 1e-13,
                                          int max_sweeps = 100) {
  OPINDYN_EXPECTS(symmetric.is_square(), "eigen solver needs square matrix");
  OPINDYN_EXPECTS(symmetric.symmetry_defect() <= 1e-9,
                  "eigen solver needs a symmetric matrix");
  const std::size_t n = symmetric.rows();
  Matrix a = symmetric;
  Matrix v = Matrix::identity(n);

  auto off_diagonal_norm = [&]() {
    double sum = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        sum += a.at(p, q) * a.at(p, q);
      }
    }
    return std::sqrt(sum);
  };

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diagonal_norm() <= tolerance) {
      break;
    }
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a.at(p, q);
        if (std::abs(apq) <= tolerance * 1e-3) {
          continue;
        }
        const double app = a.at(p, p);
        const double aqq = a.at(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        // Rutishauser's stable rotation parameters.
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) +
                          std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        const double tau = s / (1.0 + c);

        a.at(p, p) = app - t * apq;
        a.at(q, q) = aqq + t * apq;
        a.at(p, q) = 0.0;
        a.at(q, p) = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          if (i != p && i != q) {
            const double aip = a.at(i, p);
            const double aiq = a.at(i, q);
            a.at(i, p) = aip - s * (aiq + tau * aip);
            a.at(p, i) = a.at(i, p);
            a.at(i, q) = aiq + s * (aip - tau * aiq);
            a.at(q, i) = a.at(i, q);
          }
          const double vip = v.at(i, p);
          const double viq = v.at(i, q);
          v.at(i, p) = vip - s * (viq + tau * vip);
          v.at(i, q) = viq + s * (vip - tau * viq);
        }
      }
    }
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return a.at(x, x) < a.at(y, y);
  });

  EigenDecomposition result;
  result.values.reserve(n);
  result.vectors.reserve(n);
  for (const std::size_t k : order) {
    result.values.push_back(a.at(k, k));
    std::vector<double> column(n);
    for (std::size_t i = 0; i < n; ++i) {
      column[i] = v.at(i, k);
    }
    const double len = norm2(column);
    if (len > 0.0) {
      scale(column, 1.0 / len);
    }
    result.vectors.push_back(std::move(column));
  }
  return result;
}

/// Asserts every value and vector component is bit-for-bit equal (so
/// -0.0 vs 0.0 or two different NaNs would fail, unlike ==).
void expect_bitwise_equal(const Matrix& m, const std::string& what,
                          double tolerance = 1e-13, int max_sweeps = 100) {
  const EigenDecomposition expected =
      reference_jacobi_eigen(m, tolerance, max_sweeps);
  const EigenDecomposition actual = jacobi_eigen(m, tolerance, max_sweeps);
  ASSERT_EQ(actual.values.size(), expected.values.size()) << what;
  ASSERT_EQ(actual.vectors.size(), expected.vectors.size()) << what;
  for (std::size_t k = 0; k < expected.values.size(); ++k) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(actual.values[k]),
              std::bit_cast<std::uint64_t>(expected.values[k]))
        << what << ": value " << k;
    ASSERT_EQ(actual.vectors[k].size(), expected.vectors[k].size()) << what;
    for (std::size_t i = 0; i < expected.vectors[k].size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(actual.vectors[k][i]),
                std::bit_cast<std::uint64_t>(expected.vectors[k][i]))
          << what << ": vector " << k << " component " << i;
    }
  }
}

TEST(JacobiOracle, RandomRegularWalkAndLaplacianMatrices) {
  for (const NodeId n : {2, 3, 17, 64, 128}) {
    // Degree 4 where a 4-regular graph exists; below n = 5 the densest
    // regular graph, K_n.
    const NodeId degree = std::min<NodeId>(4, n - 1);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      Rng rng(seed);
      const Graph g = gen::random_regular(rng, n, degree);
      const std::string tag = "n=" + std::to_string(n) +
                              " seed=" + std::to_string(seed);
      expect_bitwise_equal(lazy_walk_matrix(g), "walk " + tag);
      expect_bitwise_equal(laplacian_matrix(g), "laplacian " + tag);
    }
  }
}

TEST(JacobiOracle, IrregularSymmetrisedWalkMatrix) {
  // The S = D^{1/2} P D^{-1/2} matrix lazy_walk_spectrum solves, on a
  // heavy-tailed graph (entries 1/(2 sqrt(d_u d_v)), not one constant).
  Rng rng(7);
  const Graph g = gen::preferential_attachment(rng, 48, 3);
  const auto n = static_cast<std::size_t>(g.node_count());
  Matrix s(n, n, 0.0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    s.at(static_cast<std::size_t>(u), static_cast<std::size_t>(u)) = 0.5;
    for (const NodeId v : g.neighbors(u)) {
      s.at(static_cast<std::size_t>(u), static_cast<std::size_t>(v)) =
          0.5 / std::sqrt(static_cast<double>(g.degree(u)) *
                          static_cast<double>(g.degree(v)));
    }
  }
  expect_bitwise_equal(s, "pref_attach walk");
}

TEST(JacobiOracle, Petersen) {
  const Graph g = gen::petersen();
  expect_bitwise_equal(laplacian_matrix(g), "petersen laplacian");
  expect_bitwise_equal(lazy_walk_matrix(g), "petersen walk");
}

TEST(JacobiOracle, DiagonalMatrixRunsZeroSweeps) {
  Matrix d(6, 6, 0.0);
  const double diagonal[] = {3.0, -1.0, 2.0, 0.0, -0.0, 2.0};
  for (std::size_t i = 0; i < 6; ++i) {
    d.at(i, i) = diagonal[i];
  }
  expect_bitwise_equal(d, "diagonal");
  expect_bitwise_equal(Matrix(1, 1, 4.5), "1x1");
}

TEST(JacobiOracle, ExactZeroOffDiagonalsTakeTheSkipBranch) {
  // Two dense blocks with exact zeros between them: every cross-block
  // pair stays exactly 0 under in-block rotations, so the solver skips
  // it on every sweep.
  Rng rng(11);
  Matrix m(9, 9, 0.0);
  const std::size_t blocks[][2] = {{0, 4}, {4, 9}};
  for (const auto& block : blocks) {
    for (std::size_t r = block[0]; r < block[1]; ++r) {
      for (std::size_t c = r; c < block[1]; ++c) {
        const double x = rng.next_gaussian();
        m.at(r, c) = x;
        m.at(c, r) = x;
      }
    }
  }
  expect_bitwise_equal(m, "block diagonal");
  // A path Laplacian: tridiagonal, so most pairs start at exact zero.
  expect_bitwise_equal(laplacian_matrix(gen::path(12)), "path laplacian");
}

TEST(JacobiOracle, LanczosTridiagonal) {
  // The Krylov tridiagonal T = tridiag(beta, alpha, beta) the Lanczos
  // solver hands to jacobi_eigen, here from 40 fully reorthogonalised
  // steps on a random-regular Laplacian.
  Rng graph_rng(3);
  const Matrix l = laplacian_matrix(gen::random_regular(graph_rng, 96, 4));
  const std::size_t n = l.rows();
  constexpr std::size_t kSteps = 40;
  Rng rng(5);
  std::vector<std::vector<double>> basis;
  std::vector<double> alpha;
  std::vector<double> beta;
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.next_gaussian();
  }
  scale(v, 1.0 / norm2(v));
  basis.push_back(v);
  for (std::size_t j = 0; j < kSteps; ++j) {
    std::vector<double> w = l.multiply(basis[j]);
    alpha.push_back(dot(w, basis[j]));
    for (const auto& b : basis) {
      axpy(-dot(w, b), b, w);
    }
    if (j + 1 == kSteps) {
      break;
    }
    beta.push_back(norm2(w));
    scale(w, 1.0 / beta.back());
    basis.push_back(std::move(w));
  }
  Matrix t(kSteps, kSteps, 0.0);
  for (std::size_t i = 0; i < kSteps; ++i) {
    t.at(i, i) = alpha[i];
    if (i + 1 < kSteps) {
      t.at(i, i + 1) = beta[i];
      t.at(i + 1, i) = beta[i];
    }
  }
  expect_bitwise_equal(t, "lanczos tridiagonal");
}

TEST(JacobiOracle, SymmetricOnlyWithinTolerance) {
  // The contract admits a 1e-9 symmetry defect; the reference reads
  // column entries A(i, p) first, and so must the rewrite.
  Rng rng(13);
  Matrix m = laplacian_matrix(gen::random_regular(rng, 24, 4));
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = r + 1; c < m.cols(); ++c) {
      m.at(r, c) += 1e-11 * rng.next_gaussian();
    }
  }
  ASSERT_GT(m.symmetry_defect(), 0.0);
  expect_bitwise_equal(m, "near-symmetric");
}

TEST(JacobiOracle, SizesAcrossTheRowStrideRule) {
  // n = 120, 129 and 248 fill an odd number of 64-byte lines, n = 127 and
  // 256 an even one (padded by a line), and 127 and 129 end mid-line.
  // The reference walks columns of an unpadded matrix, so n = 256 alone
  // costs it about a second: one seed per size.
  for (const NodeId n : {120, 127, 129, 248, 256}) {
    Rng rng(1);
    expect_bitwise_equal(lazy_walk_matrix(gen::random_regular(rng, n, 4)),
                         "walk n=" + std::to_string(n));
  }
}

TEST(JacobiOracle, CappedSweepsMatchTheReferenceState) {
  // After one to three sweeps the solve is far from converged, so every
  // upper cell a later sweep reads must have been restored exactly.
  Rng rng(17);
  Matrix dense(37, 37, 0.0);
  for (std::size_t r = 0; r < dense.rows(); ++r) {
    for (std::size_t c = r; c < dense.cols(); ++c) {
      const double x = rng.next_gaussian();
      dense.at(r, c) = x;
      dense.at(c, r) = x;
    }
  }
  Rng graph_rng(19);
  const Matrix walk = lazy_walk_matrix(gen::random_regular(graph_rng, 72, 4));
  for (const int sweeps : {1, 2, 3}) {
    const std::string tag = " sweeps=" + std::to_string(sweeps);
    expect_bitwise_equal(dense, "dense" + tag, 1e-13, sweeps);
    expect_bitwise_equal(walk, "walk" + tag, 1e-13, sweeps);
  }
}

TEST(JacobiOracle, NearSymmetricBlockDiagonal) {
  // Two dense blocks whose cross-block cells are exactly 0 in one
  // triangle and 1e-12 in the other: the solver reads the upper triangle
  // A(p, q) for its skip test, so one orientation skips an asymmetric
  // pair and the other rotates it, and in-block rotations then mix the
  // two triangles' values.
  Rng rng(23);
  constexpr std::size_t kN = 33;
  constexpr std::size_t kSplit = 14;
  Matrix zero_upper(kN, kN, 0.0);
  Matrix zero_lower(kN, kN, 0.0);
  for (std::size_t r = 0; r < kN; ++r) {
    for (std::size_t c = r; c < kN; ++c) {
      if ((r < kSplit) == (c < kSplit)) {
        const double x = rng.next_gaussian();
        zero_upper.at(r, c) = zero_upper.at(c, r) = x;
        zero_lower.at(r, c) = zero_lower.at(c, r) = x;
      } else {
        zero_upper.at(c, r) = 1e-12;
        zero_lower.at(r, c) = 1e-12;
      }
    }
  }
  ASSERT_GT(zero_upper.symmetry_defect(), 0.0);
  for (const int sweeps : {1, 2, 100}) {
    const std::string tag = " sweeps=" + std::to_string(sweeps);
    expect_bitwise_equal(zero_upper, "zero upper" + tag, 1e-13, sweeps);
    expect_bitwise_equal(zero_lower, "zero lower" + tag, 1e-13, sweeps);
  }
}

TEST(JacobiOracle, KeepsTheSquareAndSymmetryContracts) {
  EXPECT_THROW(jacobi_eigen(Matrix(2, 3, 0.0)), ContractError);
  Matrix asymmetric(2, 2, 0.0);
  asymmetric.at(0, 1) = 1e-8;
  EXPECT_THROW(jacobi_eigen(asymmetric), ContractError);
}

TEST(JacobiOracle, PollsTheAmbientCancelToken) {
  CancelToken token;
  token.cancel("test");
  const CancelScope scope(&token);
  EXPECT_THROW(jacobi_eigen(laplacian_matrix(gen::petersen())),
               CancelledError);
}

// --- Eigenvalues only -------------------------------------------------
//
// jacobi_eigenvalues runs the same sweeps without V^T; on every input
// above its values must be the oracle's, bit for bit.  The builders
// below rebuild those inputs.

/// Asserts jacobi_eigenvalues returns the oracle's values bit for bit.
void expect_values_bitwise_equal(const Matrix& m, const std::string& what,
                                 double tolerance = 1e-13,
                                 int max_sweeps = 100) {
  const EigenDecomposition expected =
      reference_jacobi_eigen(m, tolerance, max_sweeps);
  const std::vector<double> actual =
      jacobi_eigenvalues(m, tolerance, max_sweeps);
  ASSERT_EQ(actual.size(), expected.values.size()) << what;
  for (std::size_t k = 0; k < expected.values.size(); ++k) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(actual[k]),
              std::bit_cast<std::uint64_t>(expected.values[k]))
        << what << ": value " << k;
  }
}

/// A symmetric matrix with gaussian entries on `blocks` and exact zeros
/// between them.
Matrix gaussian_blocks(Rng& rng, std::size_t n,
                       std::initializer_list<std::pair<std::size_t,
                                                       std::size_t>>
                           blocks) {
  Matrix m(n, n, 0.0);
  for (const auto& [begin, end] : blocks) {
    for (std::size_t r = begin; r < end; ++r) {
      for (std::size_t c = r; c < end; ++c) {
        const double x = rng.next_gaussian();
        m.at(r, c) = x;
        m.at(c, r) = x;
      }
    }
  }
  return m;
}

TEST(JacobiOracle, EigenvaluesOnlyOnGraphMatrices) {
  for (const NodeId n : {2, 3, 17, 64, 128}) {
    const NodeId degree = std::min<NodeId>(4, n - 1);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      Rng rng(seed);
      const Graph g = gen::random_regular(rng, n, degree);
      const std::string tag = "n=" + std::to_string(n) +
                              " seed=" + std::to_string(seed);
      expect_values_bitwise_equal(lazy_walk_matrix(g), "walk " + tag);
      expect_values_bitwise_equal(laplacian_matrix(g), "laplacian " + tag);
    }
  }
  // The symmetrised walk of an irregular graph: lazy_walk_eigenvalues
  // must give the oracle's values of the S matrix its full solve builds.
  Rng rng(7);
  const Graph pa = gen::preferential_attachment(rng, 48, 3);
  const auto n = static_cast<std::size_t>(pa.node_count());
  Matrix s(n, n, 0.0);
  for (NodeId u = 0; u < pa.node_count(); ++u) {
    s.at(static_cast<std::size_t>(u), static_cast<std::size_t>(u)) = 0.5;
    for (const NodeId v : pa.neighbors(u)) {
      s.at(static_cast<std::size_t>(u), static_cast<std::size_t>(v)) =
          0.5 / std::sqrt(static_cast<double>(pa.degree(u)) *
                          static_cast<double>(pa.degree(v)));
    }
  }
  expect_values_bitwise_equal(s, "pref_attach walk");
  const std::vector<double> walk_values = lazy_walk_eigenvalues(pa).values;
  const std::vector<double> oracle = reference_jacobi_eigen(s).values;
  ASSERT_EQ(walk_values.size(), oracle.size());
  for (std::size_t k = 0; k < oracle.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(walk_values[k]),
              std::bit_cast<std::uint64_t>(oracle[k]))
        << "lazy_walk_eigenvalues value " << k;
  }
  const Graph petersen = gen::petersen();
  expect_values_bitwise_equal(laplacian_matrix(petersen),
                              "petersen laplacian");
  expect_values_bitwise_equal(lazy_walk_matrix(petersen), "petersen walk");
  for (const NodeId size : {120, 127, 129, 248, 256}) {
    Rng size_rng(1);
    expect_values_bitwise_equal(
        lazy_walk_matrix(gen::random_regular(size_rng, size, 4)),
        "walk n=" + std::to_string(size));
  }
}

TEST(JacobiOracle, EigenvaluesOnlyOnSkipAndZeroSweepCases) {
  Matrix d(6, 6, 0.0);
  const double diagonal[] = {3.0, -1.0, 2.0, 0.0, -0.0, 2.0};
  for (std::size_t i = 0; i < 6; ++i) {
    d.at(i, i) = diagonal[i];
  }
  expect_values_bitwise_equal(d, "diagonal");
  expect_values_bitwise_equal(Matrix(1, 1, 4.5), "1x1");
  Rng rng(11);
  expect_values_bitwise_equal(gaussian_blocks(rng, 9, {{0, 4}, {4, 9}}),
                              "block diagonal");
  expect_values_bitwise_equal(laplacian_matrix(gen::path(12)),
                              "path laplacian");
}

TEST(JacobiOracle, EigenvaluesOnlyOnALanczosTridiagonal) {
  Rng graph_rng(3);
  const Matrix l = laplacian_matrix(gen::random_regular(graph_rng, 96, 4));
  const std::size_t n = l.rows();
  constexpr std::size_t kSteps = 40;
  Rng rng(5);
  std::vector<std::vector<double>> basis;
  std::vector<double> alpha;
  std::vector<double> beta;
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.next_gaussian();
  }
  scale(v, 1.0 / norm2(v));
  basis.push_back(v);
  for (std::size_t j = 0; j < kSteps; ++j) {
    std::vector<double> w = l.multiply(basis[j]);
    alpha.push_back(dot(w, basis[j]));
    for (const auto& b : basis) {
      axpy(-dot(w, b), b, w);
    }
    if (j + 1 == kSteps) {
      break;
    }
    beta.push_back(norm2(w));
    scale(w, 1.0 / beta.back());
    basis.push_back(std::move(w));
  }
  Matrix t(kSteps, kSteps, 0.0);
  for (std::size_t i = 0; i < kSteps; ++i) {
    t.at(i, i) = alpha[i];
    if (i + 1 < kSteps) {
      t.at(i, i + 1) = beta[i];
      t.at(i + 1, i) = beta[i];
    }
  }
  expect_values_bitwise_equal(t, "lanczos tridiagonal");
}

TEST(JacobiOracle, EigenvaluesOnlyOnNearSymmetricAndCappedInputs) {
  // Near-symmetric inputs are the ones where reading apq from row p
  // before the pivot's first rotation would differ from the column.
  Rng rng(13);
  Matrix near = laplacian_matrix(gen::random_regular(rng, 24, 4));
  for (std::size_t r = 0; r < near.rows(); ++r) {
    for (std::size_t c = r + 1; c < near.cols(); ++c) {
      near.at(r, c) += 1e-11 * rng.next_gaussian();
    }
  }
  ASSERT_GT(near.symmetry_defect(), 0.0);
  expect_values_bitwise_equal(near, "near-symmetric");

  Rng dense_rng(17);
  const Matrix dense = gaussian_blocks(dense_rng, 37, {{0, 37}});
  Rng graph_rng(19);
  const Matrix walk = lazy_walk_matrix(gen::random_regular(graph_rng, 72, 4));
  for (const int sweeps : {1, 2, 3}) {
    const std::string tag = " sweeps=" + std::to_string(sweeps);
    expect_values_bitwise_equal(dense, "dense" + tag, 1e-13, sweeps);
    expect_values_bitwise_equal(walk, "walk" + tag, 1e-13, sweeps);
  }

  Rng block_rng(23);
  constexpr std::size_t kN = 33;
  constexpr std::size_t kSplit = 14;
  Matrix zero_upper(kN, kN, 0.0);
  Matrix zero_lower(kN, kN, 0.0);
  for (std::size_t r = 0; r < kN; ++r) {
    for (std::size_t c = r; c < kN; ++c) {
      if ((r < kSplit) == (c < kSplit)) {
        const double x = block_rng.next_gaussian();
        zero_upper.at(r, c) = zero_upper.at(c, r) = x;
        zero_lower.at(r, c) = zero_lower.at(c, r) = x;
      } else {
        zero_upper.at(c, r) = 1e-12;
        zero_lower.at(r, c) = 1e-12;
      }
    }
  }
  for (const int sweeps : {1, 2, 100}) {
    const std::string tag = " sweeps=" + std::to_string(sweeps);
    expect_values_bitwise_equal(zero_upper, "zero upper" + tag, 1e-13,
                                sweeps);
    expect_values_bitwise_equal(zero_lower, "zero lower" + tag, 1e-13,
                                sweeps);
  }
}

TEST(JacobiOracle, EigenvaluesOnlyKeepsTheContractsAndPolls) {
  EXPECT_THROW(jacobi_eigenvalues(Matrix(2, 3, 0.0)), ContractError);
  Matrix asymmetric(2, 2, 0.0);
  asymmetric.at(0, 1) = 1e-8;
  EXPECT_THROW(jacobi_eigenvalues(asymmetric), ContractError);
  CancelToken token;
  token.cancel("test");
  const CancelScope scope(&token);
  EXPECT_THROW(jacobi_eigenvalues(laplacian_matrix(gen::petersen())),
               CancelledError);
}

}  // namespace
}  // namespace opindyn
