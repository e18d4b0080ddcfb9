// The pass conditions of the checked-in paper experiments that certify
// an identity rather than estimate a quantity: the Prop. 5.1 duality is
// exact (Figs. 1 and 4), the Prop. B.1 bound holds in every cell, and
// the Lemma 5.7 closed form is the Q-chain's stationary distribution to
// machine precision.  Each spec is loaded from the same file under
// examples/specs/ that `opindyn run --spec=` reads, so a change to the
// file or to the scenario shows up here.  Columns are looked up by name.
#include <gtest/gtest.h>

#include <algorithm>
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

}  // namespace
}  // namespace engine
}  // namespace opindyn
