// The `gossip` scenario runs GossipModel through run_until_converged like
// every other kind, so it honours the knobs the shared loop reads: the
// lazy coin, the check interval, a start that has already converged,
// and the engine's work counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/engine/runner.h"
#include "src/support/metrics.h"

namespace opindyn {
namespace engine {
namespace {

ExperimentSpec gossip_spec(std::map<std::string, std::string> keys) {
  keys.emplace("scenario", "gossip");
  keys.emplace("graph", "cycle");
  ExperimentSpec spec = parse_spec(keys);
  spec.print_table = false;
  return spec;
}

/// The cell of `column` in the batch's single aggregate row.
std::string cell(const BatchResult& result, const std::string& column) {
  const auto it =
      std::find(result.columns.begin(), result.columns.end(), column);
  EXPECT_NE(it, result.columns.end()) << column;
  EXPECT_EQ(result.rows.size(), 1u);
  return result.rows.at(0).at(
      static_cast<std::size_t>(it - result.columns.begin()));
}

double mean_steps(const BatchResult& result) {
  return std::stod(cell(result, "T_eps"));
}

TEST(GossipScenario, LazyCoinChangesTheBytesAndRoughlyDoublesT) {
  const std::map<std::string, std::string> keys = {
      {"n", "32"}, {"replicas", "64"}, {"seed", "5"}, {"init", "gaussian"}};
  const BatchResult plain = run_experiment(gossip_spec(keys));
  std::map<std::string, std::string> lazy_keys = keys;
  lazy_keys["lazy"] = "true";
  const BatchResult lazy = run_experiment(gossip_spec(lazy_keys));
  EXPECT_NE(lazy.rows, plain.rows);
  const double ratio = mean_steps(lazy) / mean_steps(plain);
  EXPECT_GE(ratio, 1.5);
  EXPECT_LE(ratio, 2.5);
}

// Same seed, same trajectory; phi_V never increases under pairwise
// averaging, so checking every step stops no later than checking every
// n/4 steps.
TEST(GossipScenario, CheckingEveryStepNeverStopsLater) {
  const std::map<std::string, std::string> keys = {
      {"n", "64"}, {"replicas", "20"}, {"seed", "5"}};
  const BatchResult coarse = run_experiment(gossip_spec(keys));
  std::map<std::string, std::string> fine_keys = keys;
  fine_keys["check-interval"] = "1";
  const BatchResult fine = run_experiment(gossip_spec(fine_keys));
  EXPECT_NE(fine.rows, coarse.rows);
  EXPECT_LE(mean_steps(fine), mean_steps(coarse));
}

TEST(GossipScenario, ConvergedStartReportsZeroSteps) {
  const BatchResult result = run_experiment(
      gossip_spec({{"n", "16"}, {"init", "constant"}, {"replicas", "8"}}));
  EXPECT_EQ(cell(result, "T_eps"), "0.0");
}

TEST(GossipScenario, RecordsEngineCountersIdenticallyAtOneAndFourThreads) {
  std::map<std::string, std::int64_t> first;
  for (const std::size_t threads : {1, 4}) {
    ExperimentSpec spec =
        gossip_spec({{"n", "16"}, {"replicas", "6"}, {"seed", "3"}});
    spec.threads = threads;
    MetricsRegistry registry;
    run_experiment(spec, {}, {}, &registry);
    const FoldedMetrics folded = registry.fold();
    std::map<std::string, std::int64_t> counters;
    for (const char* name :
         {"engine.steps", "engine.checks", "engine.exact_checks"}) {
      ASSERT_EQ(folded.counters.count(name), 1u) << name;
      counters[name] = folded.counters.at(name);
      EXPECT_GT(counters[name], 0) << name;
    }
    if (first.empty()) {
      first = counters;
    } else {
      EXPECT_EQ(counters, first);
    }
  }
}

}  // namespace
}  // namespace engine
}  // namespace opindyn
