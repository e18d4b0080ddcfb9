// The pass conditions of the checked-in paper experiments: the Prop. 5.1
// duality is exact (Figs. 1 and 4), the Prop. B.1 bound holds in every
// cell, the Lemma 5.7 closed form is the Q-chain's stationary
// distribution to machine precision, the Cor. E.2 bounds hold on every
// row, and the Section 6 joint-walk chains predict Monte Carlo's third
// moment and Var(F) within 4 standard errors.  Each spec is loaded from
// the same file under
// examples/specs/ that `opindyn run --spec=` reads, so a change to the
// file or to the scenario shows up here.  Columns are looked up by name.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "src/engine/experiment_spec.h"
#include "src/engine/runner.h"
#include "src/engine/sinks.h"

#ifndef OPINDYN_SPEC_DIR
#error "OPINDYN_SPEC_DIR must name the examples/specs directory"
#endif

namespace opindyn {
namespace engine {
namespace {

/// Runs examples/specs/<name>.spec into `rows` (aggregate channel only;
/// the specs checked here write no files).
void run_spec(const std::string& name, MemorySink& rows) {
  const ExperimentSpec spec =
      parse_spec_file(std::string(OPINDYN_SPEC_DIR) + "/" + name + ".spec");
  run_experiment(spec, {&rows});
  ASSERT_FALSE(rows.rows().empty()) << name << " produced no rows";
}

std::size_t column(const MemorySink& rows, const std::string& name) {
  const std::vector<std::string>& columns = rows.columns();
  const auto it = std::find(columns.begin(), columns.end(), name);
  EXPECT_NE(it, columns.end()) << "no column '" << name << "'";
  return static_cast<std::size_t>(it - columns.begin());
}

/// Runs the spec and expects every row's `name` cell to be `expected`;
/// returns that column's index.
std::size_t expect_everywhere(const std::string& spec_name,
                              const std::string& name,
                              const std::string& expected,
                              MemorySink& rows) {
  run_spec(spec_name, rows);
  const std::size_t col = column(rows, name);
  for (const std::vector<std::string>& row : rows.rows()) {
    EXPECT_EQ(col < row.size() ? row[col] : "", expected)
        << spec_name << ": " << name;
  }
  return col;
}

TEST(ScenarioChecks, DualityIsExactInFigures1And4) {
  for (const std::string name : {"fig1_duality", "fig4_duality"}) {
    MemorySink rows;
    expect_everywhere(name, "exact", "yes", rows);
  }
}

TEST(ScenarioChecks, PropB1BoundHoldsInEveryCell) {
  MemorySink rows;
  const std::size_t holds =
      expect_everywhere("propB1_potential_drop", "holds", "yes", rows);
  EXPECT_EQ(holds + 1, rows.columns().size()) << "'holds' is not last";
}

TEST(ScenarioChecks, QChainClosedFormIsStationaryOnEveryGrid) {
  for (const std::string family :
       {"cycle", "complete", "hypercube", "torus", "random_regular"}) {
    const std::string name = "lemma57_qchain_" + family;
    MemorySink rows;
    run_spec(name, rows);
    const std::size_t residual = column(rows, "||muQ - mu||_inf");
    const std::size_t deviation = column(rows, "max |closed - power|");
    ASSERT_LT(std::max(residual, deviation), rows.columns().size());
    for (const std::vector<std::string>& row : rows.rows()) {
      EXPECT_LT(std::stod(row[residual]), 1e-13) << name;
      EXPECT_LT(std::stod(row[deviation]), 1e-7) << name;
    }
  }
}

TEST(ScenarioChecks, CheegerBoundHoldsOnEveryFamily) {
  MemorySink rows;
  expect_everywhere("corE2_cheeger", "holds", "yes", rows);
  const std::size_t lambda2 = column(rows, "lambda2(L)");
  const std::size_t bound = column(rows, "i^2/(2 d_max)");
  ASSERT_LT(std::max(lambda2, bound), rows.columns().size());
  for (const std::vector<std::string>& row : rows.rows()) {
    EXPECT_GE(std::stod(row[lambda2]), std::stod(row[bound])) << row[1];
  }
}

TEST(ScenarioChecks, EarlyTimeVarianceStaysUnderItsBound) {
  for (const std::string name :
       {"corE2_cheeger", "corE2_node_variance", "corE2_edge_variance"}) {
    MemorySink rows;
    expect_everywhere(name, "holds", "yes", rows);
    const std::size_t measured = column(rows, "Var measured");
    const std::size_t bound = column(rows, "Var bound");
    ASSERT_LT(std::max(measured, bound), rows.columns().size());
    for (const std::vector<std::string>& row : rows.rows()) {
      EXPECT_LE(std::stod(row[measured]), std::stod(row[bound])) << name;
    }
  }
}

/// Expects |MC - exact| <= 4 SE on every row whose exact value is not
/// "n/a"; returns how many rows were compared.
int expect_within_4_se(const std::string& spec_name, const MemorySink& rows,
                       const std::string& exact_name,
                       const std::string& mc_name,
                       const std::string& se_name) {
  const std::size_t exact = column(rows, exact_name);
  const std::size_t mc = column(rows, mc_name);
  const std::size_t se = column(rows, se_name);
  EXPECT_LT(std::max({exact, mc, se}), rows.columns().size());
  int compared = 0;
  for (const std::vector<std::string>& row : rows.rows()) {
    if (row[exact] == "n/a") {
      continue;
    }
    ++compared;
    EXPECT_LE(std::abs(std::stod(row[mc]) - std::stod(row[exact])),
              4.0 * std::stod(row[se]))
        << spec_name << " " << row[1] << ": " << mc_name << " "
        << row[mc] << " vs " << exact_name << " " << row[exact] << " (SE "
        << row[se] << ")";
  }
  return compared;
}

TEST(ScenarioChecks, ThreeWalkChainPredictsTheThirdMoment) {
  int compared = 0;
  for (const std::string name :
       {"future_extensions_third_moment",
        "future_extensions_third_moment_cycle",
        "future_extensions_irregular_variance"}) {
    MemorySink rows;
    run_spec(name, rows);
    compared += expect_within_4_se(name, rows, "E[F^3] exact", "E[F^3] MC",
                                   "SE(F^3)");
  }
  EXPECT_EQ(compared, 8);
}

TEST(ScenarioChecks, TwoWalkChainPredictsVarianceOnIrregularGraphs) {
  const std::string name = "future_extensions_irregular_variance";
  MemorySink rows;
  run_spec(name, rows);
  EXPECT_EQ(expect_within_4_se(name, rows, "Var(F) exact", "Var(F) MC",
                               "SE(Var)"),
            10);
}

}  // namespace
}  // namespace engine
}  // namespace opindyn
