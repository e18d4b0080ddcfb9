// The engine-side SpectrumCache contract: a sweep whose cells share one
// graph performs exactly one eigensolve per spectrum kind -- across the
// scenario's prediction batches AND the f2_* initial distributions --
// with the counters surfaced in BatchResult, and the cached spectra
// leave the emitted CSV bytes identical at every thread count.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/engine/runner.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/graph/graph_cache.h"
#include "src/service/cancel_token.h"

namespace opindyn {
namespace engine {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

ExperimentSpec small_spec(const std::string& scenario) {
  ExperimentSpec spec;
  spec.scenario = scenario;
  spec.graph.family = "cycle";
  spec.graph.n = 10;
  spec.replicas = 6;
  spec.seed = 13;
  spec.convergence.epsilon = 1e-5;
  spec.print_table = false;
  return spec;
}

// The ISSUE-4 acceptance criterion: C cells sharing one graph, R
// replicas each -- exactly ONE eigensolve for the whole batch, asserted
// via the BatchResult counters.
TEST(SpectrumCacheEngine, SweepOverOneGraphSolvesExactlyOnce) {
  ExperimentSpec spec = small_spec("thm24_edge_convergence");
  spec.sweeps = parse_sweeps("alpha:0.3,0.5,0.7");
  const BatchResult result = run_experiment(spec);
  EXPECT_EQ(result.work_items, 3);
  EXPECT_EQ(result.graphs_built, 1);
  // One Jacobi solve, in the unit the runner queues ahead of the cells
  // (the scenario declares the Laplacian); all three per-cell
  // predictions then hit the memo.
  EXPECT_EQ(result.spectra_solved, 1);
  EXPECT_EQ(result.spectra_hits, 3);
  EXPECT_EQ(result.spectra_late_solves, 0);
}

TEST(SpectrumCacheEngine, F2InitialSharesTheScenarioEigensolve) {
  // propB2_edge consumes the Laplacian spectrum twice per cell: once
  // for the f2_laplacian initial state, once for the lower-scale
  // prediction batch.  Both go through the shared record, so a two-cell
  // sweep still solves once.
  ExperimentSpec spec = small_spec("propB2_edge");
  spec.initial.distribution = "f2_laplacian";
  spec.initial.center = "none";
  spec.sweeps = parse_sweeps("alpha:0.4,0.6");
  const BatchResult result = run_experiment(spec);
  EXPECT_EQ(result.work_items, 2);
  EXPECT_EQ(result.spectra_solved, 1);
  // The prefetch pass solves; two initials + two predictions then hit.
  EXPECT_EQ(result.spectra_hits, 4);

  // Same sharing for the walk spectrum on the NodeModel side.
  ExperimentSpec node = small_spec("propB2_node");
  node.initial.distribution = "f2_walk";
  node.initial.center = "none";
  node.sweeps = parse_sweeps("alpha:0.4,0.6");
  const BatchResult node_result = run_experiment(node);
  EXPECT_EQ(node_result.spectra_solved, 1);
  EXPECT_EQ(node_result.spectra_hits, 4);
}

TEST(SpectrumCacheEngine, DistinctGraphsSolveSeparately) {
  ExperimentSpec spec = small_spec("thm24_edge_convergence");
  spec.sweeps = parse_sweeps("n:8,12");
  const BatchResult result = run_experiment(spec);
  EXPECT_EQ(result.graphs_built, 2);
  EXPECT_EQ(result.spectra_solved, 2);  // one Laplacian solve per size
  // Both solved by the declared-solve units; each prediction hits.
  EXPECT_EQ(result.spectra_hits, 2);
  EXPECT_EQ(result.spectra_late_solves, 0);
}

TEST(SpectrumCacheEngine, EvictionCannotDiscardAPrefetchedSolve) {
  // A one-record cache evicts the first graph's record as soon as the
  // second is fetched.  The runner pins both records for the batch, so
  // each graph still solves exactly once and no prediction re-solves.
  SpectrumCache spectra(CacheLimits{1, 0});
  RunContext context;
  context.spectrum_cache = &spectra;
  for (const char* scenario : {"thm22_convergence", "propB2_edge"}) {
    ExperimentSpec spec = small_spec(scenario);
    spec.threads = 2;
    spec.sweeps = parse_sweeps("n:8,12;alpha:0.4,0.6");
    spectra.clear();
    const BatchResult result = run_experiment(spec, {}, {}, context);
    EXPECT_EQ(result.work_items, 4) << scenario;
    EXPECT_EQ(result.spectra_solved, 2) << scenario;
    EXPECT_EQ(result.spectra_late_solves, 0) << scenario;
    EXPECT_GE(result.spectrum_cache_evictions, 1) << scenario;
  }
}

TEST(SpectrumCacheEngine, VectorSolvesOnlyWhereF2IsRead) {
  // The rates read eigenvalues only; f_2 is read by the f2_* initial
  // states and by propB1_drop, each with one full solve per graph.  The
  // counter is deterministic: the same at one and four threads.
  struct Case {
    const char* scenario;
    const char* init;
    std::int64_t vector_solves_per_graph;
  };
  const Case cases[] = {{"thm22_convergence", "rademacher", 0},
                        {"k_ablation", "rademacher", 0},
                        {"thm24_edge_convergence", "rademacher", 0},
                        {"thm22_convergence", "f2_walk", 1},
                        {"propB1_drop", "rademacher", 1}};
  for (const std::size_t threads : {1u, 4u}) {
    for (const Case& c : cases) {
      ExperimentSpec spec = small_spec(c.scenario);
      spec.threads = threads;
      spec.replicas = 4;
      spec.convergence.epsilon = 1e-3;
      spec.initial.distribution = c.init;
      spec.initial.center = "none";
      spec.sweeps = parse_sweeps("n:8,10;alpha:0.4,0.6");
      MetricsRegistry metrics;
      const BatchResult result = run_experiment(spec, {}, {}, &metrics);
      const std::string tag = std::string(c.scenario) + " init=" + c.init +
                              " threads=" + std::to_string(threads);
      EXPECT_EQ(result.spectra_solved, 2) << tag;  // one per graph
      EXPECT_EQ(result.spectra_vector_solves, 2 * c.vector_solves_per_graph)
          << tag;
      EXPECT_EQ(metrics.fold().counters.at("spectrum_cache.vector_solves"),
                result.spectra_vector_solves)
          << tag;
      EXPECT_EQ(result.spectra_late_solves, 0) << tag;
    }
  }
}

TEST(SpectrumCacheEngine, F2RunAfterAnEigenvalueRunOnSharedCachesKeepsItsBytes) {
  // A serve process runs thm22_convergence (eigenvalues only) and then
  // init=f2_walk on the same graph through shared caches: the second job
  // finds the eigenvalues memoised but no f_2, runs one more (full)
  // solve, and both write the bytes of fresh runs.
  const auto run_to_csv = [](const ExperimentSpec& spec,
                             const RunContext& context,
                             const std::string& tag, BatchResult& result) {
    const std::string path =
        ::testing::TempDir() + "spectrum_shared_" + tag + ".csv";
    {
      CsvSink csv(path);
      result = run_experiment(spec, {&csv}, {}, context);
    }
    const std::string bytes = read_file(path);
    std::remove(path.c_str());
    return bytes;
  };
  ExperimentSpec values = small_spec("thm22_convergence");
  values.sweeps = parse_sweeps("alpha:0.4,0.6");
  ExperimentSpec f2 = values;
  f2.initial.distribution = "f2_walk";
  f2.initial.center = "none";

  GraphCache graphs;
  SpectrumCache spectra;
  RunContext shared;
  shared.graph_cache = &graphs;
  shared.spectrum_cache = &spectra;
  BatchResult values_shared;
  BatchResult f2_shared;
  const std::string values_bytes =
      run_to_csv(values, shared, "values", values_shared);
  const std::string f2_bytes = run_to_csv(f2, shared, "f2", f2_shared);
  EXPECT_EQ(values_shared.spectra_solved, 1);
  EXPECT_EQ(values_shared.spectra_vector_solves, 0);
  EXPECT_EQ(f2_shared.graphs_built, 0);
  EXPECT_EQ(f2_shared.spectra_solved, 1);
  EXPECT_EQ(f2_shared.spectra_vector_solves, 1);
  EXPECT_EQ(f2_shared.spectra_late_solves, 0);

  BatchResult fresh;
  EXPECT_EQ(values_bytes, run_to_csv(values, RunContext{}, "values_fresh",
                                     fresh));
  EXPECT_EQ(f2_bytes, run_to_csv(f2, RunContext{}, "f2_fresh", fresh));
  EXPECT_FALSE(f2_bytes.empty());
  EXPECT_NE(values_bytes, f2_bytes);
}

TEST(SpectrumCacheEngine, NonSpectralScenarioSolvesNothing) {
  ExperimentSpec spec = small_spec("node");
  spec.sweeps = parse_sweeps("alpha:0.3,0.5");
  const BatchResult result = run_experiment(spec);
  EXPECT_EQ(result.spectra_solved, 0);
  EXPECT_EQ(result.spectra_hits, 0);
}

// Reads the walk spectrum in a prediction unit without declaring it:
// the negative control for the late-solve counter below.
class UndeclaredWalkScenario final : public Scenario {
 public:
  std::string name() const override { return "test_undeclared_walk"; }
  std::string description() const override { return "test only"; }
  std::vector<std::string> columns() const override { return {"gap"}; }
  CellFold start(const RunInput& in) const override {
    auto batch = in.scheduler.submit(
        1, 0, 1,
        [in](std::int64_t, Rng&, std::span<double> out) {
          out[0] = in.spectra.walk().gap;
        });
    return [batch] {
      return CellRows{{{std::to_string(batch->sample(0, 0))}}, {}};
    };
  }
};

void register_undeclared_walk_scenario() {
  register_builtin_scenarios();
  if (!ScenarioRegistry::instance().contains("test_undeclared_walk")) {
    ScenarioRegistry::instance().add(
        std::make_unique<UndeclaredWalkScenario>());
  }
}

TEST(SpectrumCacheEngine, EveryScenarioDeclaresTheSpectraItReads) {
  // Every registered scenario, from every initial distribution that
  // needs a spectrum or none, on two graphs x two cells each: every
  // eigensolve is of a declared spectrum, none a late solve.
  register_builtin_scenarios();
  for (const std::string& name : ScenarioRegistry::instance().names()) {
    if (name.rfind("test_", 0) == 0) {
      continue;  // test-registered scenarios (the negative control)
    }
    for (const char* init : {"rademacher", "f2_walk", "f2_laplacian"}) {
      ExperimentSpec spec = small_spec(name);
      spec.graph.n = 8;
      spec.replicas = 4;
      spec.convergence.epsilon = 1e-3;
      spec.initial.distribution = init;
      spec.initial.center = "none";
      spec.sweeps = parse_sweeps("n:8,10;alpha:0.4,0.6");
      const BatchResult result = run_experiment(spec);
      EXPECT_EQ(result.work_items, 4) << name << " init=" << init;
      EXPECT_EQ(result.spectra_late_solves, 0) << name << " init=" << init;
    }
  }
}

TEST(SpectrumCacheEngine, UndeclaredSpectrumCountsAsALateSolve) {
  register_undeclared_walk_scenario();
  ExperimentSpec spec = small_spec("test_undeclared_walk");
  spec.sweeps = parse_sweeps("alpha:0.4,0.6");
  MetricsRegistry metrics;
  const BatchResult result = run_experiment(spec, {}, {}, &metrics);
  EXPECT_EQ(result.spectra_solved, 1);
  EXPECT_EQ(result.spectra_late_solves, 1);
  EXPECT_EQ(metrics.fold().counters.at("spectrum_cache.late_solves"), 1);
}

TEST(SpectrumCacheEngine, InvalidCellKeepsTheScenarioError) {
#if defined(__SANITIZE_THREAD__)
  // The declared walk solve throws inside std::call_once here,
  // which TSan's pthread_once interceptor cannot unwind (see
  // StressGraphCache.ThrowingBuildPropagatesAndStaysRetryable).
  GTEST_SKIP() << "throwing std::call_once deadlocks under TSan";
#endif
  // A graph with an isolated node: the walk spectrum cannot be solved,
  // and propB1_drop's own check (k above the minimum degree) must still
  // be the error the cell reports -- the declared solve's failure stays
  // silent and leaves the scenario to speak.
  ExperimentSpec spec = small_spec("propB1_drop");
  GraphBuilder builder(5);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  builder.add_edge(3, 0);  // node 4 stays isolated
  GraphCache graphs;
  graphs.get(graph_cache_key(spec.graph), [&] { return builder.build(); });
  RunContext context;
  context.graph_cache = &graphs;
  try {
    run_experiment(spec, {}, {}, context);
    FAIL() << "expected the scenario's minimum-degree error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what())
                  .find("k = 1 exceeds the minimum degree 0"),
              std::string::npos)
        << error.what();
  }
}

TEST(SpectrumCacheEngine, CancelStopsAColdDenseSolveAndTheRerunResolves) {
#if defined(__SANITIZE_THREAD__)
  // The cancelled eigensolve throws through std::call_once, and the
  // rerun then enters the same once-latch again: TSan's pthread_once
  // interceptor deadlocks there (see the throwing-build stress test).
  GTEST_SKIP() << "throwing std::call_once deadlocks under TSan";
#endif
  ExperimentSpec spec;
  spec.scenario = "thm22_convergence";
  spec.graph.family = "random_regular";
  spec.graph.degree = 4;
  spec.graph.n = 512;
  spec.replicas = 2;
  spec.threads = 2;
  spec.convergence.epsilon = 1e-2;
  spec.print_table = false;
  using Clock = std::chrono::steady_clock;
  const auto run_to_csv = [&spec](const RunContext& context,
                                  const std::string& tag,
                                  BatchResult& result) {
    const std::string path =
        ::testing::TempDir() + "spectrum_cancel_" + tag + ".csv";
    {
      CsvSink csv(path);
      result = run_experiment(spec, {&csv}, {}, context);
    }
    const std::string bytes = read_file(path);
    std::remove(path.c_str());
    return bytes;
  };

  SpectrumCache spectra;
  CancelToken token;
  RunContext cancelled_context;
  cancelled_context.spectrum_cache = &spectra;
  cancelled_context.cancel = &token;
  std::thread deadline([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    token.cancel("deadline");
  });
  BatchResult cancelled;
  const auto cancelled_start = Clock::now();
  run_to_csv(cancelled_context, "cancelled", cancelled);
  const auto cancelled_time = Clock::now() - cancelled_start;
  deadline.join();
  EXPECT_TRUE(cancelled.interrupted);
  EXPECT_EQ(cancelled.spectra_solved, 0);  // stopped mid-solve

  RunContext rerun_context;
  rerun_context.spectrum_cache = &spectra;
  BatchResult rerun;
  const auto rerun_start = Clock::now();
  const std::string rerun_bytes = run_to_csv(rerun_context, "rerun", rerun);
  const auto rerun_time = Clock::now() - rerun_start;
  EXPECT_FALSE(rerun.interrupted);
  EXPECT_EQ(rerun.spectra_solved, 1);  // the cancelled solve left no memo
  // The n = 512 solve takes several Jacobi sweeps; the poll once per
  // sweep must return the cancelled run well inside one full solve.
  EXPECT_LT(cancelled_time * 2, rerun_time);

  BatchResult fresh;
  EXPECT_EQ(rerun_bytes, run_to_csv(RunContext{}, "fresh", fresh));
  EXPECT_FALSE(rerun_bytes.empty());
}

// The satellite golden-determinism criterion: with the cache enabled,
// the spectral scenarios emit byte-identical aggregate AND streamed CSV
// at 1, 4 and 8 threads (cold cache in every run, cells racing onto the
// pool in arbitrary order).
class SpectralScenarioDeterminism
    : public ::testing::TestWithParam<const char*> {};

TEST_P(SpectralScenarioDeterminism, CsvBytesIdenticalAtOneFourEightThreads) {
  ExperimentSpec spec = small_spec(GetParam());
  spec.replicas = 12;
  spec.seed = 31;
  spec.convergence.epsilon = 1e-6;
  spec.sweeps = parse_sweeps("alpha:0.4,0.6");
  if (spec.scenario == "propB2_edge") {
    spec.initial.distribution = "f2_laplacian";
    spec.initial.center = "none";
  }

  std::string aggregate[3];
  std::string streamed[3];
  const std::size_t thread_counts[3] = {1, 4, 8};
  for (int i = 0; i < 3; ++i) {
    spec.threads = thread_counts[i];
    const std::string base = ::testing::TempDir() + "spectrum_golden_" +
                             spec.scenario + "_" + std::to_string(i);
    CsvSink csv(base + ".csv");
    CsvSink rows_csv(base + "_rows.csv");
    std::vector<RowSink*> sinks{&csv};
    std::vector<RowSink*> row_sinks{&rows_csv};
    const BatchResult result = run_experiment(spec, sinks, row_sinks);
    EXPECT_EQ(result.work_items, 2);
    EXPECT_EQ(result.spectra_solved, 1);
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

INSTANTIATE_TEST_SUITE_P(CachedSpectra, SpectralScenarioDeterminism,
                         ::testing::Values("propB2_edge",
                                           "thm24_edge_convergence"));

}  // namespace
}  // namespace engine
}  // namespace opindyn
