#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "src/graph/generators.h"
#include "src/service/cancel_token.h"
#include "src/spectral/jacobi.h"
#include "src/spectral/lanczos.h"
#include "src/spectral/spectra.h"
#include "src/support/assert.h"

namespace opindyn {
namespace {

constexpr double pi = std::numbers::pi;

TEST(Jacobi, DiagonalMatrixIsItsOwnSpectrum) {
  Matrix a(3, 3, 0.0);
  a.at(0, 0) = 3.0;
  a.at(1, 1) = -1.0;
  a.at(2, 2) = 2.0;
  const auto eig = jacobi_eigen(a);
  ASSERT_EQ(eig.values.size(), 3u);
  EXPECT_NEAR(eig.values[0], -1.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.values[2], 3.0, 1e-12);
}

TEST(Jacobi, TwoByTwoClosedForm) {
  Matrix a(2, 2);
  a.at(0, 0) = 2.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 2.0;
  const auto eig = jacobi_eigen(a);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-13);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-13);
}

TEST(Jacobi, EigenvectorsSatisfyDefinitionAndOrthonormality) {
  const Graph g = gen::petersen();
  const Matrix l = laplacian_matrix(g);
  const auto eig = jacobi_eigen(l);
  const std::size_t n = l.rows();
  for (std::size_t k = 0; k < n; ++k) {
    const auto lv = l.multiply(eig.vectors[k]);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(lv[i], eig.values[k] * eig.vectors[k][i], 1e-9);
    }
    EXPECT_NEAR(norm2(eig.vectors[k]), 1.0, 1e-10);
    for (std::size_t j = k + 1; j < n; ++j) {
      EXPECT_NEAR(dot(eig.vectors[k], eig.vectors[j]), 0.0, 1e-9);
    }
  }
}

TEST(Jacobi, RejectsAsymmetric) {
  Matrix a(2, 2, 0.0);
  a.at(0, 1) = 1.0;
  EXPECT_THROW(jacobi_eigen(a), ContractError);
}

TEST(LaplacianSpectrum, CycleClosedForm) {
  // lambda_j(L) of C_n = 2 - 2 cos(2 pi j / n).
  for (const NodeId n : {5, 8, 12}) {
    const auto spec = laplacian_spectrum(gen::cycle(n));
    EXPECT_NEAR(spec.values.front(), 0.0, 1e-10);
    EXPECT_NEAR(spec.lambda2, 2.0 - 2.0 * std::cos(2.0 * pi / n), 1e-10);
    EXPECT_NEAR(spec.values.back(),
                n % 2 == 0 ? 4.0
                           : 2.0 - 2.0 * std::cos(pi * (n - 1) / n),
                1e-9);
  }
}

TEST(LaplacianSpectrum, CompleteGraphClosedForm) {
  // K_n: eigenvalues 0 and n (n-1 times).
  const auto spec = laplacian_spectrum(gen::complete(7));
  EXPECT_NEAR(spec.values.front(), 0.0, 1e-10);
  for (std::size_t i = 1; i < spec.values.size(); ++i) {
    EXPECT_NEAR(spec.values[i], 7.0, 1e-10);
  }
}

TEST(LaplacianSpectrum, StarClosedForm) {
  // S_n (n nodes): eigenvalues 0, 1 (n-2 times), n.
  const auto spec = laplacian_spectrum(gen::star(8));
  EXPECT_NEAR(spec.values[0], 0.0, 1e-10);
  EXPECT_NEAR(spec.lambda2, 1.0, 1e-10);
  EXPECT_NEAR(spec.values.back(), 8.0, 1e-10);
}

TEST(LaplacianSpectrum, HypercubeClosedForm) {
  // Q_d: eigenvalues 2i with multiplicity C(d, i); lambda2 = 2.
  const auto spec = laplacian_spectrum(gen::hypercube(3));
  EXPECT_NEAR(spec.lambda2, 2.0, 1e-10);
  EXPECT_NEAR(spec.values.back(), 6.0, 1e-10);
}

TEST(LaplacianSpectrum, PathClosedForm) {
  // P_n: lambda_2 = 2 - 2 cos(pi / n).
  const auto spec = laplacian_spectrum(gen::path(10));
  EXPECT_NEAR(spec.lambda2, 2.0 - 2.0 * std::cos(pi / 10.0), 1e-10);
}

TEST(WalkSpectrum, LazyWalkTopEigenvalueIsOne) {
  for (const auto& g :
       {gen::cycle(9), gen::complete(6), gen::star(7), gen::petersen()}) {
    const auto spec = lazy_walk_spectrum(g);
    EXPECT_NEAR(spec.values.back(), 1.0, 1e-10) << g.name();
    EXPECT_GT(spec.gap, 0.0) << g.name();
    // Lazy walk spectrum lies in [0, 1].
    EXPECT_GE(spec.values.front(), -1e-10) << g.name();
  }
}

TEST(WalkSpectrum, RegularGraphRelationToLaplacian) {
  // For d-regular graphs: 1 - lambda2(P_lazy) = lambda2(L) / (2d)
  // (the factor-d remark after Theorem 2.4).
  for (const auto& g : {gen::cycle(10), gen::complete(8), gen::hypercube(3),
                        gen::petersen(), gen::torus(3, 4)}) {
    ASSERT_TRUE(g.is_regular());
    const double d = g.min_degree();
    const auto walk = lazy_walk_spectrum(g);
    const auto lap = laplacian_spectrum(g);
    EXPECT_NEAR(walk.gap, lap.lambda2 / (2.0 * d), 1e-9) << g.name();
  }
}

TEST(WalkSpectrum, F2IsAnEigenvectorOfP) {
  const Graph g = gen::cycle(7);
  const auto spec = lazy_walk_spectrum(g);
  const Matrix p = lazy_walk_matrix(g);
  const auto pf = p.multiply(spec.f2);
  for (std::size_t i = 0; i < pf.size(); ++i) {
    EXPECT_NEAR(pf[i], spec.lambda2 * spec.f2[i], 1e-9);
  }
  // Normalised under <.,.>_pi.
  double pi_norm = 0.0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    pi_norm += g.stationary(u) * spec.f2[static_cast<std::size_t>(u)] *
               spec.f2[static_cast<std::size_t>(u)];
  }
  EXPECT_NEAR(pi_norm, 1.0, 1e-10);
}

// Q_d at d = 7 and 8 (n = 128 and 256) sits on the padded row strides of
// the dense solver.  The lazy walk of Q_d has eigenvalues 1 - i/d and the
// Laplacian 2i, each with multiplicity C(d, i), so the gap is 1/d.
std::vector<double> hypercube_spectrum(int d, double base, double step) {
  std::vector<double> values;
  std::size_t multiplicity = 1;  // C(d, i)
  for (int i = 0; i <= d; ++i) {
    values.insert(values.end(), multiplicity, base + step * i);
    multiplicity = multiplicity * static_cast<std::size_t>(d - i) /
                   static_cast<std::size_t>(i + 1);
  }
  std::sort(values.begin(), values.end());
  return values;
}

TEST(WalkSpectrum, HypercubeClosedFormAtPaddedSizes) {
  for (const int d : {7, 8}) {
    const Graph g = gen::hypercube(d);
    const auto walk = lazy_walk_spectrum(g);
    const auto walk_expected = hypercube_spectrum(d, 1.0, -1.0 / d);
    ASSERT_EQ(walk.values.size(), walk_expected.size()) << g.name();
    for (std::size_t k = 0; k < walk_expected.size(); ++k) {
      EXPECT_NEAR(walk.values[k], walk_expected[k], 1e-10)
          << g.name() << " walk value " << k;
    }
    EXPECT_NEAR(walk.gap, 1.0 / d, 1e-10) << g.name();

    const auto lap = laplacian_spectrum(g);
    const auto lap_expected = hypercube_spectrum(d, 0.0, 2.0);
    ASSERT_EQ(lap.values.size(), lap_expected.size()) << g.name();
    for (std::size_t k = 0; k < lap_expected.size(); ++k) {
      EXPECT_NEAR(lap.values[k], lap_expected[k], 1e-9)
          << g.name() << " laplacian value " << k;
    }

    // f_2 lies in the d-dimensional lambda_2 eigenspace: P f2 = lambda2
    // f2 and ||f2||_pi = 1 hold for whichever vector the solver returns.
    const auto pf = lazy_walk_matrix(g).multiply(walk.f2);
    double pi_norm = 0.0;
    for (NodeId u = 0; u < g.node_count(); ++u) {
      const auto i = static_cast<std::size_t>(u);
      EXPECT_NEAR(pf[i], walk.lambda2 * walk.f2[i], 1e-9) << g.name();
      pi_norm += g.stationary(u) * walk.f2[i] * walk.f2[i];
    }
    EXPECT_NEAR(pi_norm, 1.0, 1e-10) << g.name();
  }
}

TEST(WalkMatrix, RowStochastic) {
  for (const auto& g : {gen::star(6), gen::lollipop(4, 3)}) {
    EXPECT_NEAR(walk_matrix(g).stochasticity_defect(), 0.0, 1e-12);
    EXPECT_NEAR(lazy_walk_matrix(g).stochasticity_defect(), 0.0, 1e-12);
  }
}

TEST(Lanczos, MatchesJacobiLambda2OnMediumGraphs) {
  // Full-dimension Krylov spaces: Lanczos with complete
  // reorthogonalisation is then an exact tridiagonalisation.
  for (const auto& g : {gen::cycle(64), gen::torus(6, 6),
                        gen::complete_bipartite(10, 14)}) {
    const double dense = laplacian_spectrum(g).lambda2;
    const double sparse = laplacian_lambda2_lanczos(
        g, static_cast<std::size_t>(g.node_count()));
    EXPECT_NEAR(sparse, dense, 1e-7) << g.name();
  }
}

TEST(Lanczos, PartialKrylovUpperBoundsLambda2) {
  // With a truncated Krylov space the smallest Ritz value can only
  // overestimate lambda_2 (min-max), and on an expander-like graph (good
  // separation) it should already be close.
  const Graph g = gen::hypercube(7);  // n = 128, lambda2(L) = 2, isolated
  const double expected = 2.0;
  const double computed = laplacian_lambda2_lanczos(g, 40);
  EXPECT_GE(computed + 1e-9, expected);
  EXPECT_NEAR(computed, expected, 0.02);
}

TEST(Lanczos, LargeCycleFullDimensionIsExact) {
  const Graph g = gen::cycle(300);
  const double expected = 2.0 - 2.0 * std::cos(2.0 * pi / 300.0);
  const double computed = laplacian_lambda2_lanczos(g, 300);
  EXPECT_NEAR(computed, expected, expected * 1e-6);
}

TEST(Lanczos, PollsTheAmbientCancelToken) {
  CancelToken token;
  token.cancel("test");
  const CancelScope scope(&token);
  EXPECT_THROW(laplacian_lambda2_lanczos(gen::cycle(64), 40),
               CancelledError);
}

class SpectrumSizes : public ::testing::TestWithParam<NodeId> {};

TEST_P(SpectrumSizes, CycleLambda2MatchesClosedFormAcrossSizes) {
  const NodeId n = GetParam();
  const auto spec = laplacian_spectrum(gen::cycle(n));
  EXPECT_NEAR(spec.lambda2, 2.0 - 2.0 * std::cos(2.0 * pi / n), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpectrumSizes,
                         ::testing::Values(3, 4, 6, 9, 16, 25, 40, 64, 120,
                                           128, 256));

}  // namespace
}  // namespace opindyn
