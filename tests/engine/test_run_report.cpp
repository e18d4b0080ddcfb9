// The ISSUE-6 observability contracts, end to end through the engine:
//
//  * the counter/cell/result sections of the run report are
//    byte-identical at --threads 1/4/8 (wall-clock sections excluded),
//  * golden CSV bytes are unchanged by enabling metrics + tracing,
//  * the Chrome trace parses and its "unit" span count matches the
//    scheduler's unit totals (cell x replica units + graph prefetch),
//  * the manifest carries every required section, nonzero counters,
//    and the graph-cache hit/miss split.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "src/core/lane_kernel.h"
#include "src/engine/run_report.h"
#include "src/engine/runner.h"
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

ExperimentSpec small_sweep_spec() {
  ExperimentSpec spec;
  spec.scenario = "node_vs_edge";
  spec.graph.family = "cycle";
  spec.graph.n = 12;
  spec.replicas = 8;
  spec.seed = 11;
  spec.convergence.epsilon = 1e-6;
  spec.sweeps = parse_sweeps("k:1,2");
  spec.print_table = false;
  return spec;
}

TEST(RunReport, DeterministicSectionsAreIdenticalAcrossThreadCounts) {
  ExperimentSpec spec = small_sweep_spec();
  std::string counters[3];
  std::string cells[3];
  std::string results[3];
  const std::size_t thread_counts[3] = {1, 4, 8};
  for (int i = 0; i < 3; ++i) {
    spec.threads = thread_counts[i];
    MetricsRegistry registry;
    const BatchResult result = run_experiment(spec, {}, {}, &registry);
    RunReportOptions options;
    options.include_timings = false;  // drop the wall-clock sections
    const json::Value report =
        build_run_report(spec, result, registry.fold(), options);
    EXPECT_EQ(report.find("timings_ms"), nullptr);
    EXPECT_EQ(report.find("perf"), nullptr);
    counters[i] = report.find("counters")->dump();
    cells[i] = report.find("cells")->dump();
    results[i] = report.find("result")->dump();
  }
  EXPECT_EQ(counters[0], counters[1]);
  EXPECT_EQ(counters[0], counters[2]);
  EXPECT_EQ(cells[0], cells[1]);
  EXPECT_EQ(cells[0], cells[2]);
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(RunReport, LaneKernelAndLaneStepsAreReported) {
  // 16 replicas of node and edge on a regular graph: groups of eight.
  ExperimentSpec spec;
  spec.scenario = "cross_model";
  spec.graph.family = "random_regular";
  spec.graph.n = 64;
  spec.graph.degree = 4;
  spec.initial.distribution = "gaussian";
  spec.replicas = 16;
  spec.seed = 6;
  spec.convergence.epsilon = 1e-8;
  spec.sweeps = parse_sweeps("model:node,edge");
  spec.print_table = false;
  spec.threads = 2;
  std::map<std::string, std::int64_t> counters[2];
  for (const bool on : {true, false}) {
    std::optional<lanes::ScopedDisable> off;
    if (!on) {
      off.emplace();
    }
    MetricsRegistry registry;
    const BatchResult result = run_experiment(spec, {}, {}, &registry);
    const json::Value report =
        build_run_report(spec, result, registry.fold(), RunReportOptions{});
    EXPECT_EQ(report.find("build")->find("lane_kernel")->as_string(),
              lanes::kernel_name());
    // The flags name the options every TU and the kernel TUs get.
    const std::string flags = report.find("build")->find("flags")->as_string();
    EXPECT_NE(flags.find("-ffp-contract=off"), std::string::npos) << flags;
    EXPECT_NE(flags.find("-funroll-loops"), std::string::npos) << flags;
    for (const auto& [name, value] :
         report.find("counters")->as_object()) {
      counters[on ? 0 : 1][name] = value.as_int();
    }
  }
  auto& [with_lanes, without] = counters;
  EXPECT_EQ(without.count("engine.lane_steps"), 0U);
  EXPECT_EQ(without.at("scheduler.units_run"),
            with_lanes.at("scheduler.units_run") +
                (lanes::enabled() ? 2 * (16 - 2) : 0));
  if (lanes::enabled()) {
    // Every step but those of replicas left alone at the end of a group.
    EXPECT_GT(with_lanes.at("engine.lane_steps"),
              with_lanes.at("engine.steps") / 2);
    EXPECT_LE(with_lanes.at("engine.lane_steps"),
              with_lanes.at("engine.steps"));
  }
  for (const char* name : {"engine.steps", "engine.checks",
                           "engine.exact_checks"}) {
    EXPECT_EQ(with_lanes.at(name), without.at(name)) << name;
  }
}

TEST(RunReport, TrajectoryStepsEveryReplicaInLanes) {
  // rows_stream's shape, rows included, at a shorter horizon: 16
  // replicas are two groups of eight, so every step is a lane step and
  // 14 fewer units run; trajectory asks no stop question, so it reports
  // no check either way, and the rows are the same bytes.
  ExperimentSpec spec;
  spec.scenario = "trajectory";
  spec.graph.family = "random_regular";
  spec.graph.n = 4096;
  spec.graph.degree = 4;
  spec.initial.distribution = "gaussian";
  spec.replicas = 16;
  spec.seed = 1;
  spec.horizon = 6400;
  spec.convergence.check_interval = 64;
  spec.print_table = false;
  spec.threads = 2;
  std::map<std::string, std::int64_t> counters[2];
  std::string rows_bytes[2];
  for (const bool on : {true, false}) {
    std::optional<lanes::ScopedDisable> off;
    if (!on) {
      off.emplace();
    }
    const std::string path =
        ::testing::TempDir() + "opindyn_trajectory_lanes_rows.csv";
    MetricsRegistry registry;
    {
      CsvSink rows(path);
      run_experiment(spec, {}, {&rows}, &registry);
    }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    std::remove(path.c_str());
    rows_bytes[on ? 0 : 1] = bytes.str();
    counters[on ? 0 : 1] = registry.fold().counters;
  }
  auto& [with_lanes, without] = counters;
  EXPECT_EQ(rows_bytes[0], rows_bytes[1]);
  EXPECT_EQ(std::count(rows_bytes[0].begin(), rows_bytes[0].end(), '\n'),
            1 + 16 * 101);
  for (const auto* run : {&with_lanes, &without}) {
    EXPECT_EQ(run->at("engine.steps"), 16 * 6400);
    EXPECT_EQ(run->count("engine.checks"), 0U);
    EXPECT_EQ(run->count("engine.exact_checks"), 0U);
  }
  EXPECT_EQ(without.count("engine.lane_steps"), 0U);
  if (lanes::enabled()) {
    EXPECT_EQ(with_lanes.at("engine.lane_steps"), 16 * 6400);
    EXPECT_EQ(without.at("scheduler.units_run"),
              with_lanes.at("scheduler.units_run") + 14);
  }
}

TEST(RunReport, ConvergenceWorkCountersAreDeterministicAndScreened) {
  ExperimentSpec spec;
  spec.scenario = "cross_model";
  spec.graph.family = "random_regular";
  spec.graph.n = 256;
  spec.graph.degree = 4;
  spec.initial.distribution = "gaussian";
  spec.replicas = 6;
  spec.seed = 5;
  spec.convergence.epsilon = 1e-8;
  spec.sweeps = parse_sweeps("model:node,edge");
  spec.print_table = false;
  std::string counters[3];
  const std::size_t thread_counts[3] = {1, 4, 8};
  for (int i = 0; i < 3; ++i) {
    spec.threads = thread_counts[i];
    MetricsRegistry registry;
    const BatchResult result = run_experiment(spec, {}, {}, &registry);
    RunReportOptions options;
    options.include_timings = false;
    const json::Value report =
        build_run_report(spec, result, registry.fold(), options);
    const json::Value* block = report.find("counters");
    counters[i] = block->dump();
    const std::int64_t checks = block->find("engine.checks")->as_int();
    const std::int64_t exact = block->find("engine.exact_checks")->as_int();
    // One check before the first burst and one per n/4-step burst; the
    // screen settles all but the few near eps.
    EXPECT_GE(checks, block->find("engine.steps")->as_int() / 64);
    EXPECT_GT(exact, 0);
    EXPECT_LT(exact * 10, checks) << exact << " exact of " << checks;
  }
  EXPECT_EQ(counters[0], counters[1]);
  EXPECT_EQ(counters[0], counters[2]);
}

TEST(RunReport, PairingAttemptsCounterIsTheSameAtEveryThreadCount) {
  // perfbench converge_large's graph: random_regular(16384, 4) at
  // graph-seed 1 accepts its 158th pairing attempt.  The helpers' thrown
  // away attempts depend on timing and go in as a gauge.
  ExperimentSpec spec;
  spec.scenario = "cross_model";
  spec.graph.family = "random_regular";
  spec.graph.n = 16384;
  spec.graph.degree = 4;
  spec.graph.seed = 1;
  spec.initial.distribution = "gaussian";
  spec.replicas = 1;
  spec.convergence.max_steps = 1;
  spec.print_table = false;
  for (const std::size_t threads : {1, 2, 4}) {
    spec.threads = threads;
    MetricsRegistry registry;
    run_experiment(spec, {}, {}, &registry);
    const FoldedMetrics folded = registry.fold();
    EXPECT_EQ(folded.counters.at("graph.pairing_attempts"), 158)
        << "threads=" << threads;
    EXPECT_EQ(folded.gauges.count("graph.pairing_discarded"), 1u);
    if (threads == 1) {
      EXPECT_EQ(folded.gauges.at("graph.pairing_discarded"), 0);
    }
  }
}

TEST(RunReport, MetricsCollectionLeavesCsvBytesUnchanged) {
  ExperimentSpec spec = small_sweep_spec();
  spec.threads = 4;
  std::string outputs[2];
  for (int pass = 0; pass < 2; ++pass) {
    const std::string path = ::testing::TempDir() + "report_golden_" +
                             std::to_string(pass) + ".csv";
    CsvSink csv(path);
    std::vector<RowSink*> sinks{&csv};
    if (pass == 0) {
      run_experiment(spec, sinks);
    } else {
      MetricsRegistry registry;
      run_experiment(spec, sinks, {}, &registry);
      EXPECT_FALSE(registry.fold().counters.empty());
    }
    outputs[pass] = read_file(path);
    std::remove(path.c_str());
    EXPECT_FALSE(outputs[pass].empty());
  }
  EXPECT_EQ(outputs[0], outputs[1]);
}

TEST(RunReport, TraceParsesAndUnitSpansMatchSchedulerTotals) {
  ExperimentSpec spec = small_sweep_spec();
  spec.threads = 4;
  MetricsRegistry registry;
  run_experiment(spec, {}, {}, &registry);
  const FoldedMetrics folded = registry.fold();

  const json::Value trace = json::parse(build_trace_json(folded).dump());
  const json::Value* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::int64_t unit_spans = 0;
  std::int64_t cell_unit_spans = 0;
  for (const json::Value& event : events->as_array()) {
    if (const json::Value* cat = event.find("cat");
        cat != nullptr && cat->as_string() == "unit") {
      ++unit_spans;
      if (event.find("name")->as_string().rfind("cell/", 0) == 0) {
        ++cell_unit_spans;
      }
    }
  }
  // Every scheduled unit -- replica units plus the graph prefetch units
  // -- produced exactly one trace span...
  EXPECT_EQ(unit_spans, folded.counters.at("scheduler.units_run"));
  // ...and the cell-labeled ones match the per-cell unit counters.
  std::int64_t labeled_units = 0;
  for (const auto& [label, counters] : folded.labeled) {
    if (label.rfind("cell/", 0) == 0) {
      labeled_units += counters.at("units");
    }
  }
  EXPECT_EQ(cell_unit_spans, labeled_units);
  EXPECT_GT(cell_unit_spans, 0);
  // Phase spans from the runner are present too.
  bool saw_fold_phase = false;
  for (const json::Value& event : events->as_array()) {
    if (const json::Value* cat = event.find("cat");
        cat != nullptr && cat->as_string() == "phase" &&
        event.find("name")->as_string() == "fold") {
      saw_fold_phase = true;
    }
  }
  EXPECT_TRUE(saw_fold_phase);
}

TEST(RunReport, ManifestCarriesAllSectionsAndLiveCounters) {
  ExperimentSpec spec = small_sweep_spec();
  spec.threads = 2;
  MetricsRegistry registry;
  const BatchResult result = run_experiment(spec, {}, {}, &registry);
  RunReportOptions options;
  options.wall_ms = 123.0;
  const json::Value report =
      build_run_report(spec, result, registry.fold(), options);

  for (const char* key :
       {"schema", "scenario", "seed", "threads", "spec", "build",
        "counters", "cells", "result", "timings_ms", "gauges", "workers",
        "perf"}) {
    EXPECT_NE(report.find(key), nullptr) << key;
  }
  EXPECT_EQ(report.find("schema")->as_string(), "opindyn-run-report-v1");
  // The spec echo round-trips the input.
  EXPECT_EQ(report.find("spec")->find("scenario")->as_string(),
            "node_vs_edge");
  EXPECT_EQ(report.find("spec")->find("sweep")->as_string(), "k:1,2");
  // The build block is the `opindyn version` block.
  EXPECT_NE(report.find("build")->find("git_hash"), nullptr);
  EXPECT_NE(report.find("build")->find("checked_hot_path"), nullptr);

  const json::Value* counters = report.find("counters");
  EXPECT_GT(counters->find("engine.steps")->as_int(), 0);
  EXPECT_EQ(counters->find("engine.cells")->as_int(), 2);
  EXPECT_GT(counters->find("scheduler.units_run")->as_int(), 0);

  // Satellite (b): both halves of the graph-cache hit rate.  One
  // distinct graph, requested once by the prefetch and once per cell.
  EXPECT_EQ(result.graphs_built, 1);
  EXPECT_EQ(result.graph_cache_hits, 2);
  const json::Value* result_block = report.find("result");
  EXPECT_EQ(result_block->find("graphs_built")->as_int(), 1);
  EXPECT_EQ(result_block->find("graph_cache_hits")->as_int(), 2);
  // No row sink, so no certified rows and no exact passes for them.
  EXPECT_EQ(result_block->find("row_exact_phis")->as_int(), 0);
  EXPECT_EQ(counters->find("engine.row_exact_phis")->as_int(), 0);

  // Per-cell table: one row per grid cell, labeled counters populated.
  const json::Array& cells = report.find("cells")->as_array();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].find("label")->as_string(), "cell/0");
  EXPECT_EQ(cells[1].find("label")->as_string(), "cell/1");
  EXPECT_EQ(cells[0].find("overrides")->find("k")->as_string(), "1");
  EXPECT_GT(
      cells[0].find("counters")->find("engine.steps")->as_int(), 0);

  EXPECT_DOUBLE_EQ(report.find("perf")->find("wall_ms")->as_double(),
                   123.0);
  EXPECT_GT(report.find("perf")->find("peak_rss_bytes")->as_int(), 0);
}

TEST(RunReport, BadReportPathFailsBeforeRunningAndPreservesFiles) {
  const std::string precious =
      ::testing::TempDir() + "precious_report.json";
  {
    std::ofstream out(precious, std::ios::binary);
    out << "{\"precious\": true}\n";
  }
  ExperimentSpec spec = small_sweep_spec();
  spec.metrics_json_path = "/nonexistent-dir/report.json";
  EXPECT_THROW(run_experiment_with_default_sinks(spec),
               std::runtime_error);

  // A failed *scenario* validation must not touch an existing report.
  spec.metrics_json_path = precious;
  spec.scenario = "no_such_scenario";
  EXPECT_THROW(run_experiment_with_default_sinks(spec),
               std::runtime_error);
  EXPECT_EQ(read_file(precious), "{\"precious\": true}\n");
  std::remove(precious.c_str());
}

TEST(RunReport, DefaultSinksWriteReportAndTraceFiles) {
  ExperimentSpec spec = small_sweep_spec();
  spec.threads = 2;
  const std::string report_path =
      ::testing::TempDir() + "e2e_report.json";
  const std::string trace_path = ::testing::TempDir() + "e2e_trace.json";
  spec.metrics_json_path = report_path;
  spec.trace_json_path = trace_path;
  run_experiment_with_default_sinks(spec);

  const json::Value report = json::parse_file(report_path);
  EXPECT_EQ(report.find("schema")->as_string(), "opindyn-run-report-v1");
  EXPECT_GT(report.find("perf")->find("wall_ms")->as_double(), 0.0);
  const json::Value trace = json::parse_file(trace_path);
  EXPECT_FALSE(trace.find("traceEvents")->as_array().empty());
  std::remove(report_path.c_str());
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace engine
}  // namespace opindyn
