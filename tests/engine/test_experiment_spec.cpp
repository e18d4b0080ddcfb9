#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "src/engine/experiment_spec.h"
#include "src/engine/runner.h"

namespace opindyn {
namespace engine {
namespace {

TEST(ExperimentSpec, DefaultsRoundTripThroughSpecFile) {
  ExperimentSpec spec;
  spec.scenario = "node_vs_edge";
  spec.graph.family = "torus";
  spec.graph.n = 256;
  spec.model.alpha = 0.25;
  spec.model.k = 3;
  spec.model.lazy = true;
  spec.model.sampling = SamplingMode::with_replacement;
  spec.replicas = 12;
  spec.seed = 99;
  spec.threads = 2;
  spec.convergence.epsilon = 1e-9;
  spec.horizon = 512;
  spec.sweeps = parse_sweeps("k:1,2,4;alpha:0.3,0.5");
  spec.csv_path = "out.csv";
  spec.rows_csv_path = "rows.csv";

  const std::string text = to_key_values(spec);
  const std::string path =
      ::testing::TempDir() + "opindyn_spec_roundtrip.spec";
  {
    std::ofstream out(path);
    out << "# comment line\n\n" << text;
  }
  const ExperimentSpec reparsed = parse_spec_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(to_key_values(reparsed), text);
  EXPECT_EQ(reparsed.scenario, "node_vs_edge");
  EXPECT_EQ(reparsed.graph.n, 256);
  EXPECT_EQ(reparsed.horizon, 512);
  EXPECT_EQ(reparsed.rows_csv_path, "rows.csv");
  EXPECT_TRUE(reparsed.model.lazy);
  EXPECT_EQ(reparsed.model.sampling, SamplingMode::with_replacement);
  ASSERT_EQ(reparsed.sweeps.size(), 2u);
  EXPECT_EQ(reparsed.sweeps[0].key, "k");
  EXPECT_EQ(reparsed.sweeps[1].values,
            (std::vector<std::string>{"0.3", "0.5"}));
}

TEST(ExperimentSpec, ModelKeyParsesSweepsAndRoundTrips) {
  // model= selects the dynamics rule...
  ExperimentSpec spec = parse_spec({{"model", "weighted_median"}});
  EXPECT_EQ(spec.model.kind, ModelKind::weighted_median);
  // ...confidence= sets the HK bound...
  spec = parse_spec(
      {{"model", "hegselmann_krause"}, {"confidence", "0.35"}});
  EXPECT_EQ(spec.model.kind, ModelKind::hegselmann_krause);
  EXPECT_DOUBLE_EQ(spec.model.confidence, 0.35);

  // ...both round-trip through the spec-file serialisation...
  const std::string text = to_key_values(spec);
  const std::string path = ::testing::TempDir() + "opindyn_model.spec";
  {
    std::ofstream out(path);
    out << text;
  }
  const ExperimentSpec reparsed = parse_spec_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(to_key_values(reparsed), text);
  EXPECT_EQ(reparsed.model.kind, ModelKind::hegselmann_krause);
  EXPECT_DOUBLE_EQ(reparsed.model.confidence, 0.35);

  // ...and model is a legal sweep axis (not on the deny-list).
  ExperimentSpec sweepable;
  apply_override(sweepable, "model", "voter");
  EXPECT_EQ(sweepable.model.kind, ModelKind::voter);
  apply_override(sweepable, "confidence", "0.5");
  EXPECT_DOUBLE_EQ(sweepable.model.confidence, 0.5);
  sweepable.sweeps = parse_sweeps("model:node,edge,voter");
  EXPECT_EQ(expand_grid(sweepable).size(), 3u);
}

// Unknown model= and sampling= values fail with an edit-distance
// suggestion, like the scenario registry's unknown-name diagnostic.
TEST(ExperimentSpec, UnknownModelAndSamplingSuggestNearestName) {
  const auto expect_suggestion = [](const std::string& key,
                                    const std::string& value,
                                    const std::string& mention) {
    try {
      parse_spec({{key, value}});
      FAIL() << "expected rejection of " << key << "=" << value;
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(mention), std::string::npos) << what;
    }
  };
  expect_suggestion("model", "vooter", "did you mean 'voter'");
  expect_suggestion("model", "hegselman_krause",
                    "did you mean 'hegselmann_krause'");
  expect_suggestion("sampling", "wihtout", "did you mean 'without'");
}

TEST(ExperimentSpec, ParsesCliFlags) {
  const char* argv[] = {"opindyn",      "run",
                        "--scenario=edge", "--graph=complete",
                        "--n=32",       "--alpha=0.75",
                        "--replicas=7", "--sweep=k:1,2",
                        "--eps=1e-6",   "--csv=rows.csv"};
  const CliArgs args(10, argv);
  const ExperimentSpec spec = parse_spec(args);
  EXPECT_EQ(spec.scenario, "edge");
  EXPECT_EQ(spec.graph.family, "complete");
  EXPECT_EQ(spec.graph.n, 32);
  EXPECT_DOUBLE_EQ(spec.model.alpha, 0.75);
  EXPECT_EQ(spec.replicas, 7);
  EXPECT_DOUBLE_EQ(spec.convergence.epsilon, 1e-6);
  EXPECT_EQ(spec.csv_path, "rows.csv");
  ASSERT_EQ(spec.sweeps.size(), 1u);
  EXPECT_EQ(spec.sweeps[0].values, (std::vector<std::string>{"1", "2"}));
}

TEST(ExperimentSpec, RejectsUnknownKeysAndMalformedValues) {
  EXPECT_THROW(parse_spec({{"not-a-key", "1"}}), std::runtime_error);
  EXPECT_THROW(parse_spec({{"reorder", "true"}}), std::runtime_error);
  EXPECT_THROW(parse_spec({{"n", "twelve"}}), std::runtime_error);
  EXPECT_THROW(parse_spec({{"alpha", "0.5x"}}), std::runtime_error);
  EXPECT_THROW(parse_spec({{"lazy", "maybe"}}), std::runtime_error);
  EXPECT_THROW(parse_spec({{"sampling", "sometimes"}}), std::runtime_error);
  EXPECT_THROW(parse_spec({{"center", "left"}}), std::runtime_error);
  EXPECT_THROW(parse_spec({{"sweep", "novalues"}}), std::runtime_error);
  EXPECT_THROW(parse_spec({{"replicas", "99999999999999999999999"}}),
               std::runtime_error);  // out of int64 range
  EXPECT_THROW(parse_spec({{"hist-bins", "0"}}), std::runtime_error);
  EXPECT_THROW(parse_spec({{"quantiles", "0.5,1.5"}}), std::runtime_error);
  EXPECT_THROW(parse_spec({{"quantiles", "abc"}}), std::runtime_error);
  EXPECT_THROW(parse_spec_file("/nonexistent/path.spec"),
               std::runtime_error);
}

// Every malformed spec-file line produces a "path:line: ..." diagnostic
// naming the offending key -- never an uncaught std::invalid_argument
// (the ISSUE-3 CLI acceptance criterion).
TEST(ExperimentSpec, SpecFileErrorsCiteKeyAndLine) {
  const std::string path = ::testing::TempDir() + "opindyn_bad.spec";
  const auto expect_diagnostic = [&path](const std::string& contents,
                                         const std::string& line_tag,
                                         const std::string& mention) {
    {
      std::ofstream out(path);
      out << contents;
    }
    try {
      parse_spec_file(path);
      FAIL() << "expected std::runtime_error for: " << contents;
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(path + ":" + line_tag), std::string::npos)
          << what;
      EXPECT_NE(what.find(mention), std::string::npos) << what;
    }
    std::remove(path.c_str());
  };
  expect_diagnostic("scenario=node\nreplicas=12banana\n", "2", "replicas");
  expect_diagnostic("n=abc\n", "1", "'n'");
  expect_diagnostic("# comment\n\nfrobnicate=3\n", "3", "frobnicate");
  expect_diagnostic("scenario=node\nno equals sign here\n", "2",
                    "key=value");
  expect_diagnostic("eps=99999999999999999999999999999999999999e999999\n",
                    "1", "eps");

  // Duplicate keys: the last line wins, like CLI overrides.
  {
    std::ofstream out(path);
    out << "n=8\nn=32\n";
  }
  EXPECT_EQ(parse_spec_file(path).graph.n, 32);
  std::remove(path.c_str());
}

TEST(ExperimentSpec, HistogramKeysParseAndRoundTrip) {
  ExperimentSpec spec = parse_spec({{"hist-csv", "h.csv"},
                                    {"hist-column", "T_eps"},
                                    {"hist-bins", "12"},
                                    {"quantiles", "0.5,0.9,0.99"}});
  EXPECT_EQ(spec.hist_csv_path, "h.csv");
  EXPECT_EQ(spec.hist_column, "T_eps");
  EXPECT_EQ(spec.hist_bins, 12u);
  EXPECT_EQ(spec.quantiles, (std::vector<double>{0.5, 0.9, 0.99}));

  const std::string text = to_key_values(spec);
  const std::string path = ::testing::TempDir() + "opindyn_hist.spec";
  {
    std::ofstream out(path);
    out << text;
  }
  const ExperimentSpec reparsed = parse_spec_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(to_key_values(reparsed), text);
  EXPECT_EQ(reparsed.quantiles, spec.quantiles);

  // Orchestration/output keys cannot be swept.
  for (const std::string key :
       {"hist-csv", "hist-column", "hist-bins", "quantiles"}) {
    EXPECT_THROW(apply_override(spec, key, "x"), std::runtime_error)
        << key;
  }
}

TEST(ExperimentSpec, NewInitialDistributionsBuild) {
  GraphSpec graph;
  graph.family = "star";
  graph.n = 8;
  const Graph star = build_graph(graph);

  InitialSpec initial;
  initial.center = "none";
  initial.distribution = "hub_spike";
  const std::vector<double> spike = build_initial(initial, star);
  // The hub of a star carries the spike (value n by default), leaves 0.
  double sum = 0.0;
  double max_abs = 0.0;
  for (const double v : spike) {
    sum += v;
    max_abs = std::max(max_abs, std::abs(v));
  }
  EXPECT_DOUBLE_EQ(max_abs, 8.0);
  EXPECT_DOUBLE_EQ(sum, 8.0);  // a single nonzero entry

  initial.distribution = "blocks";
  const std::vector<double> blocks = build_initial(initial, star);
  EXPECT_DOUBLE_EQ(blocks.front(), 1.0);
  EXPECT_DOUBLE_EQ(blocks.back(), -1.0);

  // f2_* are eigenvector starts scaled by n by default; they are
  // nonzero and, for the walk matrix, pi-orthogonal to the constant.
  graph.family = "cycle";
  const Graph cycle = build_graph(graph);
  initial.distribution = "f2_walk";
  const std::vector<double> f2 = build_initial(initial, cycle);
  double norm = 0.0;
  for (const double v : f2) {
    norm += v * v;
  }
  EXPECT_GT(norm, 1.0);
  initial.distribution = "f2_laplacian";
  EXPECT_EQ(build_initial(initial, cycle).size(), 8u);
}

TEST(ExperimentSpec, OverridesApplyAndOrchestrationKeysAreProtected) {
  ExperimentSpec spec;
  apply_override(spec, "k", "8");
  apply_override(spec, "alpha", "0.125");
  apply_override(spec, "graph", "star");
  apply_override(spec, "n", "48");
  apply_override(spec, "sampling", "with");
  EXPECT_EQ(spec.model.k, 8);
  EXPECT_DOUBLE_EQ(spec.model.alpha, 0.125);
  EXPECT_EQ(spec.graph.family, "star");
  EXPECT_EQ(spec.graph.n, 48);
  EXPECT_EQ(spec.model.sampling, SamplingMode::with_replacement);

  for (const std::string key :
       {"scenario", "sweep", "csv", "rows-csv", "table", "threads",
        "replicas", "seed"}) {
    EXPECT_THROW(apply_override(spec, key, "x"), std::runtime_error)
        << key;
  }
  EXPECT_THROW(apply_override(spec, "bogus", "1"), std::runtime_error);
}

TEST(ExperimentSpec, GraphCacheKeyTracksEveryGeneratorParameter) {
  GraphSpec a;
  GraphSpec b;
  EXPECT_EQ(graph_cache_key(a), graph_cache_key(b));
  b.n = a.n + 1;
  EXPECT_NE(graph_cache_key(a), graph_cache_key(b));
  b = a;
  b.family = "torus";
  EXPECT_NE(graph_cache_key(a), graph_cache_key(b));
  b = a;
  b.degree = 6;
  EXPECT_NE(graph_cache_key(a), graph_cache_key(b));
  b = a;
  b.attach = 3;
  EXPECT_NE(graph_cache_key(a), graph_cache_key(b));
  b = a;
  b.edge_probability = 0.25;
  EXPECT_NE(graph_cache_key(a), graph_cache_key(b));
  b = a;
  b.seed = 77;
  EXPECT_NE(graph_cache_key(a), graph_cache_key(b));
}

TEST(ExperimentSpec, GridExpansionIsRowMajor) {
  ExperimentSpec spec;
  spec.sweeps = parse_sweeps("k:1,2;alpha:0.3,0.5,0.7");
  const std::vector<SweepPoint> grid = expand_grid(spec);
  ASSERT_EQ(grid.size(), 6u);
  EXPECT_EQ(grid[0].overrides[0].second, "1");
  EXPECT_EQ(grid[0].overrides[1].second, "0.3");
  EXPECT_EQ(grid[1].overrides[1].second, "0.5");
  EXPECT_EQ(grid[3].overrides[0].second, "2");
  EXPECT_EQ(grid[5].overrides[1].second, "0.7");

  spec.sweeps.clear();
  EXPECT_EQ(expand_grid(spec).size(), 1u);
  EXPECT_TRUE(expand_grid(spec)[0].overrides.empty());
}

TEST(ExperimentSpec, BuildsGraphFamiliesAndInitialDistributions) {
  GraphSpec graph;
  graph.family = "hypercube";
  graph.n = 16;
  EXPECT_EQ(build_graph(graph).node_count(), 16);
  graph.family = "random_regular";
  graph.degree = 4;
  EXPECT_TRUE(build_graph(graph).is_regular());
  graph.family = "not_a_family";
  EXPECT_THROW(build_graph(graph), std::runtime_error);

  graph.family = "cycle";
  const Graph g = build_graph(graph);
  InitialSpec initial;
  initial.distribution = "rademacher";
  const std::vector<double> xi = build_initial(initial, g);
  ASSERT_EQ(xi.size(), 16u);
  double sum = 0.0;
  for (const double v : xi) {
    sum += v;
  }
  EXPECT_NEAR(sum, 0.0, 1e-12);  // plain centering by default

  initial.distribution = "constant";
  initial.param_a = 2.5;
  initial.center = "none";
  EXPECT_DOUBLE_EQ(build_initial(initial, g)[7], 2.5);

  initial.distribution = "unknown";
  EXPECT_THROW(build_initial(initial, g), std::runtime_error);
}

}  // namespace
}  // namespace engine
}  // namespace opindyn
