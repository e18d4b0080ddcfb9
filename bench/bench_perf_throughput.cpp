// PERF -- engine microbenchmarks (google-benchmark) for what no gated
// tool measures: the incremental-potential ablation (OpinionState's
// O(1) accumulators vs a naive O(n) recompute per step, against the
// single-step path of both processes and its extremum-tracking
// variant), neighbour sampling, and the cell-level scheduling of the
// batch runner (many small cells must scale with the thread count).
// The burst kernels are gated by `bench/perf_baseline` against
// BENCH_8.json, and rng draws by perfbench's per-layer rows.
#include <benchmark/benchmark.h>

#include "src/core/edge_model.h"
#include "src/core/initial_values.h"
#include "src/core/node_model.h"
#include "src/engine/runner.h"
#include "src/graph/generators.h"
#include "src/support/rng.h"
#include "src/support/sampling.h"

namespace {

using namespace opindyn;

void BM_NodeModelStep(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto k = state.range(1);
  Rng graph_rng(1);
  const Graph g = gen::random_regular(graph_rng, n, 4);
  Rng init_rng(2);
  NodeModelParams params;
  params.alpha = 0.5;
  params.k = k;
  NodeModel model(g, initial::gaussian(init_rng, n, 0.0, 1.0), params);
  Rng rng(3);
  for (auto _ : state) {
    model.step(rng);
    benchmark::DoNotOptimize(model.state().phi());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NodeModelStep)
    ->Args({64, 1})
    ->Args({64, 4})
    ->Args({1024, 1})
    ->Args({1024, 4})
    ->Args({16384, 1})
    ->Args({16384, 4});

void BM_EdgeModelStep(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng graph_rng(1);
  const Graph g = gen::random_regular(graph_rng, n, 4);
  Rng init_rng(2);
  EdgeModelParams params;
  params.alpha = 0.5;
  EdgeModel model(g, initial::gaussian(init_rng, n, 0.0, 1.0), params);
  Rng rng(3);
  for (auto _ : state) {
    model.step(rng);
    benchmark::DoNotOptimize(model.state().phi());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EdgeModelStep)->Arg(64)->Arg(1024)->Arg(16384);

void BM_NodeModelStepWithExtrema(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng graph_rng(1);
  const Graph g = gen::random_regular(graph_rng, n, 4);
  Rng init_rng(2);
  NodeModelParams params;
  params.alpha = 0.5;
  params.k = 1;
  params.track_extrema = true;  // ablation: lazy min/max maintenance
  NodeModel model(g, initial::gaussian(init_rng, n, 0.0, 1.0), params);
  Rng rng(3);
  for (auto _ : state) {
    model.step(rng);
    benchmark::DoNotOptimize(model.state().discrepancy());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NodeModelStepWithExtrema)->Arg(1024)->Arg(16384);

// Ablation: what a naive harness would pay if it recomputed phi from
// scratch at every step instead of using the incremental accumulators.
void BM_NaivePhiRecompute(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng graph_rng(1);
  const Graph g = gen::random_regular(graph_rng, n, 4);
  Rng init_rng(2);
  NodeModelParams params;
  params.alpha = 0.5;
  params.k = 1;
  NodeModel model(g, initial::gaussian(init_rng, n, 0.0, 1.0), params);
  Rng rng(3);
  for (auto _ : state) {
    model.step(rng);
    benchmark::DoNotOptimize(model.state().phi_exact());  // O(n) scan
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NaivePhiRecompute)->Arg(1024)->Arg(16384);

void BM_SampleWithoutReplacement(benchmark::State& state) {
  Rng rng(7);
  std::vector<std::int32_t> out;
  const auto k = state.range(0);
  for (auto _ : state) {
    sample_without_replacement(rng, 64, k, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_SampleWithoutReplacement)->Arg(1)->Arg(4)->Arg(16);

// The ISSUE-2 acceptance scenario: a sweep of many small cells (24
// cells x 4 replicas of cycle(24)) through the batch runner.  Before
// the cell scheduler, parallelism lived inside a cell (4 replicas), so
// extra threads were wasted; now all cell x replica units share one
// pool and wall-clock time drops with the thread count.  Also counts
// graph builds: the whole alpha x k grid shares one cached cycle(24).
void BM_EngineManySmallCells(benchmark::State& state) {
  engine::ExperimentSpec spec;
  spec.scenario = "node";
  spec.graph.family = "cycle";
  spec.graph.n = 24;
  spec.replicas = 4;
  spec.seed = 11;
  spec.convergence.epsilon = 1e-8;
  spec.sweeps = engine::parse_sweeps(
      "alpha:0.30,0.33,0.36,0.39,0.42,0.45,0.48,0.51,0.54,0.57,0.60,0.63;"
      "k:1,2");
  spec.print_table = false;
  spec.threads = static_cast<std::size_t>(state.range(0));

  std::int64_t cells = 0;
  std::int64_t graphs_built = 0;
  for (auto _ : state) {
    const engine::BatchResult result = engine::run_experiment(spec);
    benchmark::DoNotOptimize(result.rows.size());
    cells += result.work_items;
    graphs_built += result.graphs_built;
  }
  state.SetItemsProcessed(cells * spec.replicas);
  state.counters["cells"] = static_cast<double>(cells);
  state.counters["graphs_built"] = static_cast<double>(graphs_built);
}
BENCHMARK(BM_EngineManySmallCells)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
