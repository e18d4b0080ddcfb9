// Lemma 5.7: the Q-chain's stationary distribution on d-regular graphs
// takes exactly the three closed-form values mu_0 / mu_1 / mu_+ by
// distance class.  Verified three independent ways:
//   (1) the closed form satisfies mu Q = mu on the exactly-built Q matrix,
//   (2) power iteration on Q converges to the same vector,
//   (3) simulating the two correlated walks matches the predicted
//       occupation frequencies.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "src/core/node_model.h"
#include "src/core/qchain.h"
#include "tests/common/random_walks.h"
#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/support/assert.h"

namespace opindyn {
namespace {

TEST(QChainClosedForm, NormalisationIdentity) {
  // n mu_0 + n d mu_1 + n(n-d-1) mu_+ = 1 (Eq. 56).
  for (const std::int64_t n : {6, 10, 20, 51}) {
    for (const std::int64_t d : {2, 3, 4, 5}) {
      if (d >= n) {
        continue;
      }
      for (const std::int64_t k : {std::int64_t{1}, d / 2 + 1, d}) {
        for (const double alpha : {0.1, 0.5, 0.9}) {
          const auto v = q_stationary_closed_form(n, d, k, alpha);
          const double total =
              static_cast<double>(n) * v.mu0 +
              static_cast<double>(n * d) * v.mu1 +
              static_cast<double>(n * (n - d - 1)) * v.mu_plus;
          EXPECT_NEAR(total, 1.0, 1e-12)
              << "n=" << n << " d=" << d << " k=" << k
              << " alpha=" << alpha;
          EXPECT_GT(v.mu0, 0.0);
          EXPECT_GT(v.mu1, 0.0);
          EXPECT_GT(v.mu_plus, 0.0);
          // mu_1 <= mu_+ would contradict mu1 - mu+ <= 0 used in the
          // Theorem 2.2(2) proof -- check the sign convention.
          EXPECT_LE(v.mu1, v.mu_plus + 1e-15);
          // Walking pairs prefer being together: mu0 > mu_+.
          EXPECT_GT(v.mu0, v.mu_plus);
        }
      }
    }
  }
}

TEST(QChain, TransitionMatrixIsStochasticAndMatchesPaperEntries) {
  // Spot-check the entries of Eqs. (14)-(21) on the cycle C_5 (d = 2,
  // k = 1, alpha = 0.5, pi_x = 1/n = 0.2).
  const Graph g = gen::cycle(5);
  const double alpha = 0.5;
  QChain chain(g, alpha, 1);
  const Matrix& q = chain.transition();
  const double pi = 0.2;
  const double b = 1.0 - alpha;
  const double d = 2.0;

  // Eq. (15): Q((x,x),(u,u)) = (1-a)^2 pi / (k d), u neighbour of x.
  EXPECT_NEAR(q.at(chain.state_index(0, 0), chain.state_index(1, 1)),
              b * b * pi / d, 1e-14);
  // Eq. (16)/(17): Q((x,x),(x,u)) = a(1-a) pi / d.
  EXPECT_NEAR(q.at(chain.state_index(0, 0), chain.state_index(0, 1)),
              alpha * b * pi / d, 1e-14);
  EXPECT_NEAR(q.at(chain.state_index(0, 0), chain.state_index(1, 0)),
              alpha * b * pi / d, 1e-14);
  // Eq. (18): self-loop at (x,x) = a^2 pi + (1 - pi).
  EXPECT_NEAR(q.at(chain.state_index(0, 0), chain.state_index(0, 0)),
              alpha * alpha * pi + (1.0 - pi), 1e-14);
  // Eq. (19): Q((x,y),(x,v)) = (1-a) pi / d for v ~ y.
  EXPECT_NEAR(q.at(chain.state_index(0, 2), chain.state_index(0, 3)),
              b * pi / d, 1e-14);
  // Eq. (21): self-loop at (x,y) = (1 - 2 pi) + 2 pi a.
  EXPECT_NEAR(q.at(chain.state_index(0, 2), chain.state_index(0, 2)),
              (1.0 - 2.0 * pi) + 2.0 * pi * alpha, 1e-14);
}

TEST(QChain, K2DistinctPairTransitionMatchesEq14) {
  // Eq. (14): Q((x,x),(u,v)) = (1-a)^2 pi (k-1)/(k d(d-1)) for u != v
  // both neighbours of x.  Petersen graph: d = 3, take k = 2.
  const Graph g = gen::petersen();
  const double alpha = 0.3;
  QChain chain(g, alpha, 2);
  const double pi = 1.0 / 10.0;
  const double b = 1.0 - alpha;
  const auto row0 = g.neighbors(0);
  const NodeId u = row0[0];
  const NodeId v = row0[1];
  EXPECT_NEAR(
      chain.transition().at(chain.state_index(0, 0), chain.state_index(u, v)),
      b * b * pi * (2.0 - 1.0) / (2.0 * 3.0 * 2.0), 1e-14);
  // Non-reversibility (proof of Lemma 5.7): with k >= 2 a distance-0 pair
  // can split straight to distance 2 (Petersen is triangle-free, so two
  // neighbours of node 0 are non-adjacent), but a distance-2 pair can
  // never coalesce in one step -- only one coordinate moves per step.
  EXPECT_GT(
      chain.transition().at(chain.state_index(0, 0), chain.state_index(u, v)),
      0.0);
  EXPECT_EQ(
      chain.transition().at(chain.state_index(u, v), chain.state_index(0, 0)),
      0.0);
}

struct QChainCase {
  const char* name;
  std::int64_t k;
  double alpha;
};

// Names each case by its values; without this gtest prints the raw bytes,
// name pointer included, and the test names change from build to build.
void PrintTo(const QChainCase& c, std::ostream* os) {
  *os << c.name << "_k" << c.k << "_alpha" << c.alpha;
}

class QChainStationarySweep : public ::testing::TestWithParam<QChainCase> {
 protected:
  static Graph make_graph(const std::string& name) {
    Rng rng(77);
    if (name == "cycle8") return gen::cycle(8);
    if (name == "complete6") return gen::complete(6);
    if (name == "petersen") return gen::petersen();
    if (name == "hypercube3") return gen::hypercube(3);
    if (name == "torus33") return gen::torus(3, 3);
    if (name == "circulant10") return gen::circulant(10, {1, 2});
    return gen::random_regular(rng, 12, 4);
  }
};

TEST_P(QChainStationarySweep, ClosedFormSatisfiesMuQEqualsMu) {
  const auto p = GetParam();
  const Graph g = make_graph(p.name);
  if (p.k > g.min_degree()) {
    GTEST_SKIP() << "k exceeds degree";
  }
  QChain chain(g, p.alpha, p.k);
  // This is the core assertion of Lemma 5.7.
  EXPECT_LT(chain.closed_form_residual(), 1e-14)
      << p.name << " k=" << p.k << " alpha=" << p.alpha;
}

TEST_P(QChainStationarySweep, PowerIterationAgreesWithClosedForm) {
  const auto p = GetParam();
  const Graph g = make_graph(p.name);
  if (p.k > g.min_degree()) {
    GTEST_SKIP() << "k exceeds degree";
  }
  QChain chain(g, p.alpha, p.k);
  const auto numerical = chain.numerical_stationary(1e-13, 4000000);
  ASSERT_TRUE(numerical.converged);
  const auto closed = chain.closed_form_stationary();
  for (std::size_t s = 0; s < closed.size(); ++s) {
    EXPECT_NEAR(numerical.distribution[s], closed[s], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GraphKAlpha, QChainStationarySweep,
    ::testing::Values(QChainCase{"cycle8", 1, 0.5},
                      QChainCase{"cycle8", 2, 0.25},
                      QChainCase{"complete6", 1, 0.5},
                      QChainCase{"complete6", 3, 0.7},
                      QChainCase{"complete6", 5, 0.9},
                      QChainCase{"petersen", 1, 0.3},
                      QChainCase{"petersen", 2, 0.5},
                      QChainCase{"petersen", 3, 0.8},
                      QChainCase{"hypercube3", 2, 0.4},
                      QChainCase{"torus33", 4, 0.6},
                      QChainCase{"circulant10", 3, 0.35},
                      QChainCase{"random12_4", 2, 0.55}));

TEST(QChain, SimulatedPairFrequenciesMatchStationary) {
  // Long-run empirical occupation of the two-walk pair state matches mu.
  const Graph g = gen::cycle(6);
  const double alpha = 0.5;
  const std::int64_t k = 1;
  QChain chain(g, alpha, k);
  const auto mu = chain.closed_form_stationary();

  NodeModelParams params;
  params.alpha = alpha;
  params.k = k;
  NodeModel driver(g, std::vector<double>(6, 0.0), params);
  CorrelatedWalks pair(g, alpha, {0, 3});
  Rng rng(101);
  std::vector<double> freq(36, 0.0);
  constexpr int warmup = 20000;
  constexpr int samples = 2000000;
  for (int t = 0; t < warmup; ++t) {
    pair.apply(driver.step_recorded(rng), rng);
  }
  for (int t = 0; t < samples; ++t) {
    pair.apply(driver.step_recorded(rng), rng);
    freq[chain.state_index(pair.position(0), pair.position(1))] +=
        1.0 / samples;
  }
  for (std::size_t s = 0; s < 36; ++s) {
    EXPECT_NEAR(freq[s], mu[s], 0.004) << "state " << s;
  }
}

TEST(QChain, RejectsInvalidParameters) {
  const Graph g = gen::cycle(6);
  EXPECT_THROW(QChain(g, 0.0, 1), ContractError);
  EXPECT_THROW(QChain(g, 0.5, 3), ContractError);  // k > min degree
  EXPECT_THROW(q_stationary_closed_form(6, 1, 1, 0.5), ContractError);
  EXPECT_THROW(q_stationary_closed_form(6, 2, 3, 0.5), ContractError);
  // Closed form requested for an irregular graph.  QChain borrows the
  // graph, so it must outlive the chain (a temporary here is a
  // use-after-scope).
  const Graph star = gen::star(5);
  QChain star_chain(star, 0.5, 1);
  EXPECT_THROW(star_chain.closed_form_stationary(), ContractError);
}

TEST(QChain, IrregularGraphStillHasStationaryDistribution) {
  // Section 6 open problem: no closed form for irregular graphs, but the
  // chain itself is fine -- power iteration must converge.
  const Graph g = gen::star(5);
  QChain chain(g, 0.5, 1);
  const auto result = chain.numerical_stationary();
  ASSERT_TRUE(result.converged);
  double total = 0.0;
  for (const double x : result.distribution) {
    total += x;
  }
  EXPECT_NEAR(total, 1.0, 1e-10);
}

}  // namespace
}  // namespace opindyn
