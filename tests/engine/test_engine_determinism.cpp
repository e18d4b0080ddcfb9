// The engine's determinism contract: for a fixed seed, both a raw
// CellScheduler batch and a full engine batch (grid expansion + sharded
// replicas + CSV emission) produce bit-identical results at any thread
// count.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <span>
#include <sstream>

#include "src/core/convergence.h"
#include "src/core/initial_values.h"
#include "src/core/model.h"
#include "src/engine/runner.h"
#include "src/graph/generators.h"
#include "src/service/server.h"
#include "src/support/cell_scheduler.h"
#include "src/support/json.h"
#include "src/support/metrics.h"

namespace opindyn {
namespace engine {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(EngineDeterminism, ReplicaBatchIsBitIdenticalAcrossThreadCounts) {
  const Graph g = gen::cycle(16);
  Rng init_rng(8);
  auto xi = initial::rademacher(init_rng, 16);
  initial::center_plain(xi);
  ModelConfig config;
  config.alpha = 0.5;
  config.k = 1;
  const auto body = [&](std::int64_t, Rng& rng, std::span<double> out) {
    auto process = make_process(g, config, xi);
    ConvergenceOptions convergence;
    convergence.epsilon = 1e-10;
    const ConvergenceResult res =
        run_until_converged(*process, rng, convergence);
    out[0] = res.final_value;
    out[1] = static_cast<double>(res.steps);
  };
  CellScheduler one(1);
  CellScheduler eight(8);
  const auto serial = one.run(48, 17, 2, body);
  const auto parallel = eight.run(48, 17, 2, body);

  EXPECT_EQ(serial[0].count(), parallel[0].count());
  // Bitwise equality, not EXPECT_NEAR: the fold order is fixed.
  EXPECT_EQ(serial[0].mean(), parallel[0].mean());
  EXPECT_EQ(serial[0].variance(), parallel[0].variance());
  EXPECT_EQ(serial[0].min(), parallel[0].min());
  EXPECT_EQ(serial[0].max(), parallel[0].max());
  EXPECT_EQ(serial[1].mean(), parallel[1].mean());
  EXPECT_EQ(serial[1].variance(), parallel[1].variance());
}

TEST(EngineDeterminism, CellSchedulerFoldsInReplicaOrder) {
  CellScheduler serial(1);
  CellScheduler parallel(8);
  const auto body = [](std::int64_t r, Rng& rng, std::span<double> out) {
    out[0] = rng.next_double() + static_cast<double>(r) * 1e-6;
  };
  const auto a = serial.run(100, 5, 1, body);
  const auto b = parallel.run(100, 5, 1, body);
  EXPECT_EQ(a[0].mean(), b[0].mean());
  EXPECT_EQ(a[0].variance(), b[0].variance());
  EXPECT_EQ(a[0].count(), 100);
}

TEST(EngineDeterminism, BatchCsvIsByteIdenticalAcrossThreadCounts) {
  ExperimentSpec spec;
  spec.scenario = "node_vs_edge";
  spec.graph.family = "cycle";
  spec.graph.n = 16;
  spec.replicas = 24;
  spec.seed = 7;
  spec.convergence.epsilon = 1e-8;
  spec.sweeps = parse_sweeps("k:1,2");
  spec.print_table = false;

  std::string outputs[3];
  const std::size_t thread_counts[3] = {1, 3, 8};
  for (int i = 0; i < 3; ++i) {
    spec.threads = thread_counts[i];
    const std::string path = ::testing::TempDir() +
                             "opindyn_determinism_" + std::to_string(i) +
                             ".csv";
    CsvSink csv(path);
    std::vector<RowSink*> sinks{&csv};
    const BatchResult result = run_experiment(spec, sinks);
    EXPECT_EQ(result.work_items, 2);
    EXPECT_EQ(result.rows.size(), 2u);
    outputs[i] = read_file(path);
    std::remove(path.c_str());
    EXPECT_FALSE(outputs[i].empty());
  }
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_EQ(outputs[0], outputs[2]);
}

// The ISSUE-2 acceptance criterion: a multi-cell sweep with per-replica
// row streaming produces byte-identical CSVs -- on both channels -- at
// 1, 4 and 8 threads, even though all (cell x replica) units of the
// grid run concurrently on one pool.
TEST(EngineDeterminism, StreamedRowsAreByteIdenticalAcrossThreadCounts) {
  ExperimentSpec spec;
  spec.scenario = "whp_tail";
  spec.graph.family = "cycle";
  spec.graph.n = 12;
  spec.replicas = 16;
  spec.seed = 5;
  spec.convergence.epsilon = 1e-6;
  spec.sweeps = parse_sweeps("alpha:0.3,0.5;n:12,16");
  spec.print_table = false;

  std::string aggregate[3];
  std::string streamed[3];
  const std::size_t thread_counts[3] = {1, 4, 8};
  for (int i = 0; i < 3; ++i) {
    spec.threads = thread_counts[i];
    const std::string base = ::testing::TempDir() + "opindyn_stream_" +
                             std::to_string(i);
    CsvSink csv(base + ".csv");
    CsvSink rows_csv(base + "_rows.csv");
    std::vector<RowSink*> sinks{&csv};
    std::vector<RowSink*> row_sinks{&rows_csv};
    const BatchResult result = run_experiment(spec, sinks, row_sinks);
    EXPECT_EQ(result.work_items, 4);
    EXPECT_EQ(result.rows.size(), 8u);  // 2 models per cell
    // 2 models x 16 replicas per cell, 4 cells.
    EXPECT_EQ(result.replica_rows.size(), 128u);
    aggregate[i] = read_file(base + ".csv");
    streamed[i] = read_file(base + "_rows.csv");
    std::remove((base + ".csv").c_str());
    std::remove((base + "_rows.csv").c_str());
    EXPECT_FALSE(aggregate[i].empty());
    EXPECT_FALSE(streamed[i].empty());
  }
  EXPECT_EQ(aggregate[0], aggregate[1]);
  EXPECT_EQ(aggregate[0], aggregate[2]);
  EXPECT_EQ(streamed[0], streamed[1]);
  EXPECT_EQ(streamed[0], streamed[2]);
}

// The row channel's count of exact potential passes is a work count of
// the grid alone: the same in the BatchResult, the metrics counters and
// the serve record at any thread count, and it leaves the bytes alone.
TEST(EngineDeterminism, RowExactPhisIsTheSameAcrossThreadsAndServe) {
  ExperimentSpec spec;
  spec.scenario = "trajectory";
  spec.graph.family = "complete";
  spec.graph.n = 64;
  spec.replicas = 6;
  spec.horizon = 2048;
  spec.convergence.check_interval = 8;
  spec.seed = 4;
  spec.sweeps = parse_sweeps("alpha:0.3,0.5");
  spec.print_table = false;

  std::string rows[3];
  std::int64_t exact = -1;
  const std::size_t thread_counts[3] = {1, 4, 8};
  for (int i = 0; i < 3; ++i) {
    spec.threads = thread_counts[i];
    const std::string path = ::testing::TempDir() + "opindyn_exact_phis_" +
                             std::to_string(i) + ".csv";
    MetricsRegistry registry;
    BatchResult result;
    {
      CsvSink rows_csv(path);
      result = run_experiment(spec, {}, {&rows_csv}, &registry);
    }
    rows[i] = read_file(path);
    std::remove(path.c_str());
    const FoldedMetrics folded = registry.fold();
    EXPECT_EQ(folded.counters.at("engine.row_exact_phis"),
              result.row_exact_phis);
    if (i == 0) {
      exact = result.row_exact_phis;
    }
    EXPECT_EQ(result.row_exact_phis, exact) << thread_counts[i] << " threads";
  }
  EXPECT_EQ(rows[0], rows[1]);
  EXPECT_EQ(rows[0], rows[2]);
  // Checkpoints every 8 steps on a fast mixer: phi reaches its rounding
  // floor, where some rows need the exact pass and others do not.
  const auto total = static_cast<std::int64_t>(2 * 6 * (2048 / 8 + 1));
  EXPECT_GT(exact, 0);
  EXPECT_LT(exact, total);

  service::ServeOptions options;
  options.threads = 3;
  service::JobStreamService server(std::move(options));
  const std::string serve_rows =
      ::testing::TempDir() + "opindyn_serve_exact.csv";
  std::istringstream in(
      "scenario=trajectory graph=complete n=64 replicas=6 horizon=2048 "
      "check-interval=8 seed=4 sweep=alpha:0.3,0.5 rows-csv=" + serve_rows +
      "\n");
  std::ostringstream out;
  ASSERT_EQ(server.serve_stream(in, out), 0);
  std::istringstream lines(out.str());
  std::string line;
  bool found = false;
  while (std::getline(lines, line)) {
    const json::Value record = json::parse(line);
    const json::Value* job = record.find("job");
    if (job != nullptr && job->as_int() == 1) {
      ASSERT_EQ(record.find("status")->as_string(), "ok");
      EXPECT_EQ(record.find("row_exact_phis")->as_int(), exact);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(read_file(serve_rows), rows[0]);
  std::remove(serve_rows.c_str());
}

// Sweeping model parameters must not rebuild the graph per cell: the
// runner's GraphCache shares one immutable Graph across the sweep.
TEST(EngineDeterminism, GraphCacheBuildsEachDistinctGraphOnce) {
  ExperimentSpec spec;
  spec.scenario = "node";
  spec.graph.family = "cycle";
  spec.graph.n = 12;
  spec.replicas = 4;
  spec.convergence.epsilon = 1e-4;
  spec.sweeps = parse_sweeps("alpha:0.3,0.5,0.7;k:1,2");
  spec.print_table = false;

  const BatchResult swept = run_experiment(spec);
  EXPECT_EQ(swept.work_items, 6);
  EXPECT_EQ(swept.graphs_built, 1);

  // A sweep that really changes the graph builds one per size.
  spec.sweeps = parse_sweeps("n:12,16,20");
  const BatchResult sized = run_experiment(spec);
  EXPECT_EQ(sized.work_items, 3);
  EXPECT_EQ(sized.graphs_built, 3);
}

// The ISSUE-3 acceptance criterion for the ported bench scenarios:
// aggregate CSV and streamed per-replica CSV bytes are identical at
// --threads 1/4/8 for the newly registered paper scenarios.  Each
// scenario here covers a different port family: duality (Fig. 1/4),
// martingale (Lemma 4.1), thm24_edge_variance (the variance suite).
class PortedScenarioDeterminism
    : public ::testing::TestWithParam<const char*> {};

TEST_P(PortedScenarioDeterminism, CsvBytesIdenticalAtOneFourEightThreads) {
  ExperimentSpec spec;
  spec.scenario = GetParam();
  spec.graph.family = "cycle";
  spec.graph.n = 10;
  spec.replicas = 12;
  spec.seed = 29;
  spec.horizon = 40;
  spec.convergence.epsilon = 1e-6;
  spec.sweeps = parse_sweeps("alpha:0.4,0.6");
  spec.print_table = false;

  std::string aggregate[3];
  std::string streamed[3];
  const std::size_t thread_counts[3] = {1, 4, 8};
  for (int i = 0; i < 3; ++i) {
    spec.threads = thread_counts[i];
    const std::string base = ::testing::TempDir() + "ported_" +
                             spec.scenario + "_" + std::to_string(i);
    CsvSink csv(base + ".csv");
    CsvSink rows_csv(base + "_rows.csv");
    std::vector<RowSink*> sinks{&csv};
    std::vector<RowSink*> row_sinks{&rows_csv};
    const BatchResult result = run_experiment(spec, sinks, row_sinks);
    EXPECT_EQ(result.work_items, 2);
    aggregate[i] = read_file(base + ".csv");
    streamed[i] = read_file(base + "_rows.csv");
    std::remove((base + ".csv").c_str());
    std::remove((base + "_rows.csv").c_str());
    EXPECT_FALSE(aggregate[i].empty());
    EXPECT_FALSE(streamed[i].empty());
  }
  EXPECT_EQ(aggregate[0], aggregate[1]);
  EXPECT_EQ(aggregate[0], aggregate[2]);
  EXPECT_EQ(streamed[0], streamed[1]);
  EXPECT_EQ(streamed[0], streamed[2]);
}

INSTANTIATE_TEST_SUITE_P(PaperScenarios, PortedScenarioDeterminism,
                         ::testing::Values("duality", "martingale",
                                           "thm24_edge_variance"));

// The remaining ported scenarios at least run through the engine and
// produce a row per cell (their heavy exact machinery -- eigensolves,
// Q-chain matrices, enumerations -- runs on the pool).
TEST(EngineDeterminism, AllPaperScenariosRunThroughTheEngine) {
  for (const std::string scenario :
       {"qchain", "thm22_variance", "thm24_edge_convergence",
        "prop58_variance", "propB1_drop", "propB2_node", "propB2_edge"}) {
    ExperimentSpec spec;
    spec.scenario = scenario;
    spec.graph.family = "cycle";
    spec.graph.n = 8;
    spec.replicas = 4;
    spec.seed = 3;
    spec.convergence.epsilon = 1e-4;
    spec.print_table = false;
    if (scenario == "propB2_node") {
      spec.initial.distribution = "f2_walk";
      spec.initial.center = "none";
    } else if (scenario == "propB2_edge") {
      spec.initial.distribution = "f2_laplacian";
      spec.initial.center = "none";
    }
    const BatchResult result = run_experiment(spec);
    EXPECT_EQ(result.work_items, 1) << scenario;
    EXPECT_FALSE(result.rows.empty()) << scenario;
  }
}

// Regression: the default-sink wrapper validates the scenario BEFORE
// opening any output file, so a typo'd --scenario (or --quantiles on a
// non-streaming scenario) must not truncate a pre-existing CSV.
TEST(EngineDeterminism, FailedValidationLeavesExistingOutputIntact) {
  const std::string path =
      ::testing::TempDir() + "opindyn_precious_output.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "precious,rows\n1,2\n";
  }
  ExperimentSpec spec;
  spec.scenario = "nodde";  // unknown
  spec.csv_path = path;
  spec.print_table = false;
  EXPECT_THROW(run_experiment_with_default_sinks(spec),
               std::runtime_error);
  EXPECT_EQ(read_file(path), "precious,rows\n1,2\n");

  spec.scenario = "node";  // known, but streams no rows
  spec.quantiles = {0.5};
  EXPECT_THROW(run_experiment_with_default_sinks(spec),
               std::runtime_error);
  EXPECT_EQ(read_file(path), "precious,rows\n1,2\n");
  std::remove(path.c_str());
}

// Every grid cell is resolved and range-checked before any output file
// opens: an out-of-range value or a bad sweep value fails with a
// one-line error naming the key, and a pre-existing CSV keeps its bytes.
TEST(EngineDeterminism, OutOfRangeAndBadSweepValuesLeaveExistingOutputIntact) {
  const std::string path = ::testing::TempDir() + "opindyn_kept_output.csv";
  const struct {
    std::map<std::string, std::string> override_keys;
    const char* key;
  } cases[] = {
      {{{"replicas", "0"}}, "'replicas'"},
      {{{"eps", "0"}}, "'eps'"},
      {{{"max-steps", "-1"}}, "'max-steps'"},
      {{{"sweep", "replicas:4,0"}}, "'replicas'"},
      {{{"sweep", "alpha:0.5,abc"}}, "'alpha'"},
      {{{"sweep", "eps:1e-6,0"}}, "'eps'"},
      {{{"alpha", "1.5"}}, "'alpha'"},
      {{{"alpha", "-0.1"}}, "'alpha'"},
      {{{"k", "0"}}, "'k'"},
      {{{"sweep", "alpha:0.5,1"}}, "'alpha'"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.key);
    {
      std::ofstream out(path, std::ios::binary);
      out << "precious,rows\n1,2\n";
    }
    std::map<std::string, std::string> keys = {
        {"scenario", "node"}, {"graph", "cycle"}, {"n", "16"},
        {"csv", path},        {"table", "false"}};
    keys.insert(c.override_keys.begin(), c.override_keys.end());
    const ExperimentSpec spec = parse_spec(keys);
    try {
      run_experiment_with_default_sinks(spec);
      ADD_FAILURE() << "expected std::runtime_error";
    } catch (const std::runtime_error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(c.key), std::string::npos) << message;
      EXPECT_EQ(message.find("precondition"), std::string::npos) << message;
      EXPECT_EQ(message.find('\n'), std::string::npos) << message;
    }
    EXPECT_EQ(read_file(path), "precious,rows\n1,2\n");
  }
  std::remove(path.c_str());
}

// cross_model runs model= verbatim, so a knob the kind does not use is
// caught per grid cell before any output file opens: the spec as given,
// and a sweep whose second cell is the bad one.
TEST(EngineDeterminism, UnusedModelKnobLeavesExistingOutputIntact) {
  const std::string path = ::testing::TempDir() + "opindyn_knob_output.csv";
  const std::map<std::string, std::string> cases[] = {
      {{"model", "voter"}},
      {{"sweep", "model:node,voter"}},
  };
  for (const auto& overrides : cases) {
    SCOPED_TRACE(overrides.begin()->second);
    {
      std::ofstream out(path, std::ios::binary);
      out << "precious\n";
    }
    std::map<std::string, std::string> keys = {
        {"scenario", "cross_model"}, {"alpha", "0.3"}, {"n", "16"},
        {"csv", path}, {"table", "false"}};
    keys.insert(overrides.begin(), overrides.end());
    try {
      run_experiment_with_default_sinks(parse_spec(keys));
      ADD_FAILURE() << "expected std::runtime_error";
    } catch (const std::runtime_error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("'voter' does not use alpha="),
                std::string::npos)
          << message;
      EXPECT_EQ(message.find('\n'), std::string::npos) << message;
    }
    EXPECT_EQ(read_file(path), "precious\n");
  }
  std::remove(path.c_str());
}

// Per-kind requirements are part of the same per-cell check:
// hegselmann_krause under cross_model needs confidence=.
TEST(EngineDeterminism, MissingConfidenceLeavesExistingOutputIntact) {
  const std::string path = ::testing::TempDir() + "opindyn_hk_output.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "precious\n";
  }
  const ExperimentSpec spec = parse_spec(
      {{"scenario", "cross_model"}, {"model", "hegselmann_krause"},
       {"n", "16"}, {"csv", path}, {"table", "false"}});
  try {
    run_experiment_with_default_sinks(spec);
    ADD_FAILURE() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("requires confidence="), std::string::npos)
        << message;
    EXPECT_EQ(message.find('\n'), std::string::npos) << message;
  }
  EXPECT_EQ(read_file(path), "precious\n");
  std::remove(path.c_str());
}

/// Runs `keys` with csv= naming a file that already holds bytes, and
/// expects a one-line std::runtime_error containing `needle` with the
/// file left byte-identical: the cell was rejected before any output
/// opened.
void expect_rejected_before_output(std::map<std::string, std::string> keys,
                                   const std::string& needle) {
  const std::string path = ::testing::TempDir() + "opindyn_keep.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "precious,rows\n1,2\n";
  }
  keys["csv"] = path;
  keys["table"] = "false";
  try {
    run_experiment_with_default_sinks(parse_spec(keys));
    ADD_FAILURE() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find(needle), std::string::npos) << message;
    EXPECT_EQ(message.find('\n'), std::string::npos) << message;
    EXPECT_EQ(message.find("precondition"), std::string::npos) << message;
    EXPECT_EQ(message.find(".cpp"), std::string::npos) << message;
  }
  EXPECT_EQ(read_file(path), "precious,rows\n1,2\n");
  std::remove(path.c_str());
}

// The generators' parameter preconditions are checked from the spec,
// per grid cell, before any output opens: each case names its key and
// no source file.
TEST(EngineDeterminism, OddRandomRegularDegreeSumLeavesExistingOutputIntact) {
  expect_rejected_before_output({{"scenario", "node"},
                                 {"graph", "random_regular"},
                                 {"n", "15"},
                                 {"degree", "3"}},
                                "spec key 'degree': random_regular needs "
                                "n * degree even, got n = 15, degree = 3");
}

TEST(EngineDeterminism, ErdosRenyiProbabilityAboveOneLeavesExistingOutputIntact) {
  expect_rejected_before_output(
      {{"scenario", "node"}, {"graph", "erdos_renyi"}, {"p", "2"}},
      "spec key 'p': erdos_renyi needs p in (0, 1], got 2");
}

TEST(EngineDeterminism, ZeroAttachLeavesExistingOutputIntact) {
  expect_rejected_before_output(
      {{"scenario", "node"}, {"graph", "pref_attach"}, {"attach", "0"}},
      "spec key 'attach': pref_attach needs attach >= 1, got 0");
}

TEST(EngineDeterminism, TwoNodeCycleLeavesExistingOutputIntact) {
  expect_rejected_before_output(
      {{"scenario", "node"}, {"graph", "cycle"}, {"n", "2"}},
      "spec key 'n': cycle needs n >= 3, got 2");
  expect_rejected_before_output(
      {{"scenario", "node"}, {"graph", "cycle"}, {"sweep", "n:8,2"}},
      "spec key 'n': cycle needs n >= 3, got 2");
}

TEST(EngineDeterminism, OneNodeHypercubeLeavesExistingOutputIntact) {
  expect_rejected_before_output(
      {{"scenario", "node"}, {"graph", "hypercube"}, {"n", "1"}},
      "spec key 'n': hypercube needs n >= 2, got 1");
}

TEST(EngineDeterminism, NegativeRampMagnitudeLeavesExistingOutputIntact) {
  expect_rejected_before_output(
      {{"scenario", "node"}, {"init", "ramp"}, {"init-a", "-1"}},
      "spec key 'init-a': ramp needs a magnitude > 0 (0 means 1), got -1");
}

// hegselmann_krause runs an unset confidence (0) at its default bound,
// but an explicit bound <= 0 is rejected per cell, as under cross_model,
// instead of silently running at the default.
TEST(EngineDeterminism, NegativeConfidenceLeavesExistingOutputIntact) {
  expect_rejected_before_output({{"scenario", "hegselmann_krause"},
                                 {"confidence", "-1"},
                                 {"n", "16"}},
                                "requires confidence= > 0");
  expect_rejected_before_output({{"scenario", "hegselmann_krause"},
                                 {"sweep", "confidence:0.5,-1"},
                                 {"n", "16"}},
                                "requires confidence= > 0");
}

// The exact sides of corE2_bounds (2^n subsets for i(G)) and
// future_extensions (the dense n^3-state 3-walk chain) are size-checked
// from the spec's n before any output opens, not inside a replica unit.
TEST(EngineDeterminism, CorE2AboveTheSubsetLimitLeavesExistingOutputIntact) {
  expect_rejected_before_output(
      {{"scenario", "corE2_bounds"}, {"graph", "cycle"}, {"n", "21"}},
      "needs n <= 20, got n = 21");
  expect_rejected_before_output({{"scenario", "corE2_bounds"},
                                 {"graph", "cycle"},
                                 {"sweep", "n:16,24"}},
                                "needs n <= 20, got n = 24");
}

TEST(EngineDeterminism,
     FutureExtensionsAboveTheChainLimitLeavesExistingOutputIntact) {
  expect_rejected_before_output(
      {{"scenario", "future_extensions"}, {"graph", "star"}, {"n", "13"}},
      "needs n <= 12, got n = 13");
}

// Both scenarios measure one of the paper's two processes.
TEST(EngineDeterminism, NodeOrEdgeScenariosRejectOtherModels) {
  for (const std::string scenario : {"corE2_bounds", "future_extensions"}) {
    expect_rejected_before_output(
        {{"scenario", scenario}, {"n", "8"}, {"model", "voter"}},
        "model= must be node or edge, got 'voter'");
  }
}

// The single-model scenarios drop the knobs their kind does not read,
// so the per-cell check must let those specs through and run them.
TEST(EngineDeterminism, ForcedKindScenariosKeepAcceptingForeignKnobs) {
  const std::map<std::string, std::string> cases[] = {
      {{"scenario", "edge"}, {"k", "2"}, {"sampling", "with"}},
      {{"scenario", "node_vs_edge"}, {"k", "2"}},
      {{"scenario", "averaging_vs_voter"}, {"alpha", "0.3"}},
      {{"scenario", "degroot"}, {"k", "2"}, {"alpha", "0.3"}},
  };
  for (const auto& overrides : cases) {
    SCOPED_TRACE(overrides.begin()->second);
    std::map<std::string, std::string> keys = {
        {"graph", "cycle"}, {"n", "16"}, {"replicas", "2"},
        {"eps", "1e-6"},    {"table", "false"}};
    keys.insert(overrides.begin(), overrides.end());
    const ExperimentSpec spec = parse_spec(keys);
    EXPECT_NO_THROW(validate_spec(spec));
    EXPECT_FALSE(run_experiment_with_default_sinks(spec).rows.empty());
  }
}

// A check-interval the spec sets is honoured for voter cells like any
// other kind: every streamed consensus time is a multiple of it.  Left
// unset, the voter checks after every step and the times are exact.
TEST(EngineDeterminism, CrossModelVoterHonoursASetCheckInterval) {
  const std::string path = ::testing::TempDir() + "opindyn_voter_rows.csv";
  const auto consensus_times = [&path](const char* check_interval) {
    std::map<std::string, std::string> keys = {
        {"scenario", "cross_model"}, {"model", "voter"},
        {"graph", "cycle"},          {"n", "16"},
        {"replicas", "8"},           {"seed", "21"},
        {"rows-csv", path},          {"table", "false"}};
    if (check_interval != nullptr) {
      keys.emplace("check-interval", check_interval);
    }
    run_experiment_with_default_sinks(parse_spec(keys));
    std::istringstream lines(read_file(path));
    std::string line;
    std::getline(lines, line);  // header; T_eps is the last column
    std::vector<std::int64_t> times;
    while (std::getline(lines, line)) {
      times.push_back(std::stoll(line.substr(line.rfind(',') + 1)));
    }
    return times;
  };
  const std::vector<std::int64_t> every_step = consensus_times(nullptr);
  const std::vector<std::int64_t> every_7th = consensus_times("7");
  ASSERT_EQ(every_step.size(), 8u);
  ASSERT_EQ(every_7th.size(), 8u);
  bool any_off_grid = false;
  for (std::size_t r = 0; r < every_7th.size(); ++r) {
    SCOPED_TRACE(r);
    // Same stream, so the coarse check stops within one interval after
    // the exact consensus time.
    EXPECT_EQ(every_7th[r] % 7, 0);
    EXPECT_GE(every_7th[r], every_step[r]);
    EXPECT_LT(every_7th[r], every_step[r] + 7);
    any_off_grid |= every_step[r] % 7 != 0;
  }
  EXPECT_TRUE(any_off_grid);
  std::remove(path.c_str());
}

// The PR-8 acceptance criterion for the generalized model family: a
// cross-model sweep (model= as the sweep axis) produces byte-identical
// aggregate and streamed CSVs at 1, 4 and 8 threads -- every kind's
// step_burst kernel runs under the shared scheduler here.
TEST(EngineDeterminism, CrossModelSweepCsvBytesIdenticalAcrossThreads) {
  ExperimentSpec spec;
  spec.scenario = "cross_model";
  spec.graph.family = "random_regular";
  spec.graph.degree = 4;
  spec.graph.n = 12;
  spec.replicas = 8;
  spec.seed = 37;
  spec.convergence.epsilon = 1e-5;
  spec.convergence.max_steps = 200000;
  spec.sweeps = parse_sweeps("model:node,edge,voter,gossip,weighted_median");
  spec.print_table = false;

  std::string aggregate[3];
  std::string streamed[3];
  const std::size_t thread_counts[3] = {1, 4, 8};
  for (int i = 0; i < 3; ++i) {
    spec.threads = thread_counts[i];
    const std::string base = ::testing::TempDir() + "cross_model_" +
                             std::to_string(i);
    CsvSink csv(base + ".csv");
    CsvSink rows_csv(base + "_rows.csv");
    std::vector<RowSink*> sinks{&csv};
    std::vector<RowSink*> row_sinks{&rows_csv};
    const BatchResult result = run_experiment(spec, sinks, row_sinks);
    EXPECT_EQ(result.work_items, 5);
    EXPECT_EQ(result.rows.size(), 5u);
    EXPECT_EQ(result.replica_rows.size(), 40u);  // 5 models x 8 replicas
    aggregate[i] = read_file(base + ".csv");
    streamed[i] = read_file(base + "_rows.csv");
    std::remove((base + ".csv").c_str());
    std::remove((base + "_rows.csv").c_str());
    EXPECT_FALSE(aggregate[i].empty());
    EXPECT_FALSE(streamed[i].empty());
  }
  EXPECT_EQ(aggregate[0], aggregate[1]);
  EXPECT_EQ(aggregate[0], aggregate[2]);
  EXPECT_EQ(streamed[0], streamed[1]);
  EXPECT_EQ(streamed[0], streamed[2]);
}

TEST(EngineDeterminism, BaselineScenarioIsDeterministicToo) {
  ExperimentSpec spec;
  spec.scenario = "voter";
  spec.graph.family = "complete";
  spec.graph.n = 12;
  spec.replicas = 32;
  spec.seed = 21;
  spec.print_table = false;

  MemorySink a;
  spec.threads = 1;
  std::vector<RowSink*> sink_a{&a};
  run_experiment(spec, sink_a);

  MemorySink b;
  spec.threads = 6;
  std::vector<RowSink*> sink_b{&b};
  run_experiment(spec, sink_b);

  EXPECT_EQ(a.columns(), b.columns());
  EXPECT_EQ(a.rows(), b.rows());
}

}  // namespace
}  // namespace engine
}  // namespace opindyn
