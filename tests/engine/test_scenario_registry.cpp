#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/engine/scenario.h"

namespace opindyn {
namespace engine {
namespace {

class FakeScenario : public Scenario {
 public:
  explicit FakeScenario(std::string name) : name_(std::move(name)) {}
  std::string name() const override { return name_; }
  std::string description() const override { return "fake"; }
  std::vector<std::string> columns() const override { return {"x"}; }
  CellFold start(const RunInput&) const override {
    return [] { return CellRows{{{"0"}}, {}}; };
  }

 private:
  std::string name_;
};

TEST(ScenarioRegistry, BuiltinsAreRegistered) {
  register_builtin_scenarios();
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  std::vector<std::string> grid = {
      "node", "edge", "lazy", "node_vs_edge", "k_ablation", "voter",
      "gossip", "degroot", "friedkin_johnsen", "averaging_vs_voter",
      "gossip_vs_unilateral", "whp_tail", "thm22_convergence",
      "trajectory",
      // The generalized model family (cross_model honours model=).
      "cross_model", "weighted_median", "hegselmann_krause",
      // The paper-theorem scenarios (ports of the bench binaries).
      "duality", "martingale", "qchain", "thm22_variance",
      "thm24_edge_convergence", "thm24_edge_variance",
      "prop58_variance", "propB1_drop", "propB2_node", "propB2_edge",
      "corE2_bounds", "future_extensions"};
  for (const std::string& name : grid) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_EQ(registry.get(name).name(), name);
    EXPECT_FALSE(registry.get(name).description().empty()) << name;
    EXPECT_FALSE(registry.get(name).columns().empty()) << name;
  }
  // names() is sorted and is exactly the grid: a registration missing
  // from it fails here, not only in opindyn-lint.
  std::sort(grid.begin(), grid.end());
  EXPECT_EQ(registry.names(), grid);

  // The streaming scenarios declare per-replica row columns; the plain
  // aggregating ones do not.
  EXPECT_FALSE(registry.get("whp_tail").row_columns().empty());
  EXPECT_FALSE(registry.get("trajectory").row_columns().empty());
  EXPECT_FALSE(registry.get("thm22_variance").row_columns().empty());
  EXPECT_FALSE(registry.get("duality").row_columns().empty());
  EXPECT_FALSE(registry.get("cross_model").row_columns().empty());
  EXPECT_TRUE(registry.get("node").row_columns().empty());
  EXPECT_TRUE(registry.get("qchain").row_columns().empty());
}

TEST(ScenarioRegistry, UnknownScenarioErrorNamesTheKnownOnes) {
  register_builtin_scenarios();
  try {
    ScenarioRegistry::instance().get("no_such_scenario");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("no_such_scenario"), std::string::npos);
    EXPECT_NE(message.find("known:"), std::string::npos);
    EXPECT_NE(message.find("node_vs_edge"), std::string::npos);
  }
}

TEST(ScenarioRegistry, UnknownScenarioErrorSuggestsNearMatches) {
  register_builtin_scenarios();
  // A one-letter typo suggests the intended scenario...
  try {
    ScenarioRegistry::instance().get("vooter");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("did you mean 'voter'"), std::string::npos)
        << message;
  }
  // ...while a name unlike anything registered gets no suggestion.
  try {
    ScenarioRegistry::instance().get("zzzzzzzzzz");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()).find("did you mean"),
              std::string::npos);
  }
}

TEST(ScenarioRegistry, RejectsDuplicateRegistration) {
  ScenarioRegistry registry;
  registry.add(std::make_unique<FakeScenario>("dup"));
  EXPECT_TRUE(registry.contains("dup"));
  EXPECT_THROW(registry.add(std::make_unique<FakeScenario>("dup")),
               std::runtime_error);
  EXPECT_FALSE(registry.contains("other"));
  EXPECT_THROW(registry.get("other"), std::runtime_error);
}

}  // namespace
}  // namespace engine
}  // namespace opindyn
