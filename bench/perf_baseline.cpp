// perf_baseline -- the tracked steps/sec baseline behind BENCH_*.json.
//
// Times the two averaging processes through both stepping paths -- the
// recorded single-step path (one virtual step_recorded per step,
// allocating its NodeSelection) and the chunked burst kernel (one
// virtual step_burst per 4096 steps, allocation-free) -- and emits one
// JSON document:
//
//   perf_baseline --out BENCH_8.json [--min-time 0.3]
//
// The workload matrix covers every devirtualized kernel variant (node
// k in {1, 4, 8}, edge, tracked extrema for both models), the
// irregular-topology path and the degree-sorted reorder mirror on a
// preferential-attachment graph, an n-scaling curve per model on tori
// from 1k to 10M nodes (the compact-graph milestone; deterministic
// 4-regular, so the curve isolates memory behaviour from graph
// randomness), and one row per generalized model kind (voter, gossip,
// weighted_median, hegselmann_krause) so every burst kernel in the
// family is gated.  The model name is part of the perf_check workload
// identity.  The numbers are only comparable on the machine that
// measured them; re-measure both sides when moving hardware (see
// README "Performance").  The build object records compiler, flags and
// the burst-kernel ISA (portable vs avx2), so a BENCH document is
// self-describing about which kernels produced it.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/edge_model.h"
#include "src/core/gossip_model.h"
#include "src/core/hegselmann_krause_model.h"
#include "src/core/initial_values.h"
#include "src/core/model.h"
#include "src/core/node_model.h"
#include "src/core/voter_model.h"
#include "src/core/weighted_median_model.h"
#include "src/graph/generators.h"
#include "src/support/build_info.h"
#include "src/support/json.h"
#include "src/support/rng.h"

namespace {

using namespace opindyn;

constexpr std::int64_t kBurst = 4096;

struct Workload {
  ModelKind kind = ModelKind::node;
  /// random_regular (d = 4) | torus (largest square <= n) | pref_attach
  /// (attach = 2, heavy-tailed degrees).
  const char* graph = "random_regular";
  NodeId n = 0;
  std::int64_t k = 1;
  bool track_extrema = false;
  /// Degree-sorted value mirror inside bursts (non-identity only on
  /// the irregular families).
  bool reorder = false;
  /// Node-model neighbour sampling.  The k = 8 row runs WITH
  /// replacement: without-replacement needs min_degree >= k, and the
  /// configuration model's whole-graph rejection makes a simple
  /// 8-regular graph unreachable at this n (acceptance ~ e^{-(d^2-1)/4}).
  SamplingMode sampling = SamplingMode::without_replacement;
};

const Workload kWorkloads[] = {
    // The core matrix: both models on random 4-regular graphs.
    {ModelKind::node, "random_regular", 1024, 1},
    {ModelKind::node, "random_regular", 1024, 4},
    {ModelKind::node, "random_regular", 16384, 1},
    {ModelKind::node, "random_regular", 16384, 4},
    {ModelKind::edge, "random_regular", 1024, 1},
    {ModelKind::edge, "random_regular", 16384, 1},
    {ModelKind::node, "random_regular", 1024, 1, true},
    {ModelKind::node, "random_regular", 16384, 1, true},
    // Remaining devirtualized kernel variants: the k = 8 fused draw
    // (with replacement -- see Workload::sampling) and the
    // tracked-extrema edge rows.
    {ModelKind::node, "random_regular", 16384, 8, false, false,
     SamplingMode::with_replacement},
    {ModelKind::edge, "random_regular", 1024, 1, true},
    {ModelKind::edge, "random_regular", 16384, 1, true},
    // Irregular topology (CSR offsets + per-node pi) and the
    // degree-sorted reorder mirror, on a heavy-tailed graph.
    {ModelKind::node, "pref_attach", 16384, 1},
    {ModelKind::node, "pref_attach", 16384, 1, false, true},
    {ModelKind::edge, "pref_attach", 16384, 1},
    {ModelKind::edge, "pref_attach", 16384, 1, false, true},
    // n-scaling curve per model: tori from 1k to 10M nodes (sides
    // 32, 128, 362, 1024, 3162).
    {ModelKind::node, "torus", 1024},
    {ModelKind::node, "torus", 131044},
    {ModelKind::node, "torus", 1048576},
    {ModelKind::node, "torus", 9998244},
    {ModelKind::edge, "torus", 1024},
    {ModelKind::edge, "torus", 131044},
    {ModelKind::edge, "torus", 1048576},
    {ModelKind::edge, "torus", 9998244},
    // The generalized model family (one gated row per burst kernel).
    {ModelKind::voter, "random_regular", 16384},
    {ModelKind::gossip, "random_regular", 16384},
    {ModelKind::weighted_median, "random_regular", 1024},
    {ModelKind::weighted_median, "random_regular", 16384},
    {ModelKind::weighted_median, "random_regular", 16384, 4},
    {ModelKind::weighted_median, "pref_attach", 16384},
    {ModelKind::hegselmann_krause, "random_regular", 16384},
};

Graph build_bench_graph(const Workload& w) {
  const std::string family = w.graph;
  if (family == "random_regular") {
    Rng graph_rng(1);
    return gen::random_regular(graph_rng, w.n, 4);
  }
  if (family == "torus") {
    const auto side =
        static_cast<NodeId>(std::llround(std::sqrt(static_cast<double>(w.n))));
    return gen::torus(side, side);
  }
  if (family == "pref_attach") {
    Rng graph_rng(1);
    return gen::preferential_attachment(graph_rng, w.n, 2);
  }
  std::cerr << "perf_baseline: unknown graph family " << family << "\n";
  std::exit(1);
}

std::unique_ptr<AveragingProcess> build_process(const Workload& w,
                                                const Graph& g) {
  Rng init_rng(2);
  auto xi = initial::gaussian(init_rng, g.node_count(), 0.0, 1.0);
  switch (w.kind) {
    case ModelKind::node: {
      NodeModelParams params;
      params.alpha = 0.5;
      params.k = w.k;
      params.sampling = w.sampling;
      params.track_extrema = w.track_extrema;
      params.reorder = w.reorder;
      return std::make_unique<NodeModel>(g, std::move(xi), params);
    }
    case ModelKind::edge: {
      EdgeModelParams params;
      params.alpha = 0.5;
      params.track_extrema = w.track_extrema;
      params.reorder = w.reorder;
      return std::make_unique<EdgeModel>(g, std::move(xi), params);
    }
    case ModelKind::voter:
      // Gaussian values are pairwise distinct, so the id bookkeeping
      // stays busy for the whole measurement window (consensus on
      // n = 16k takes ~n^2 steps, far beyond a rep).
      return std::make_unique<VoterModel>(g, std::move(xi));
    case ModelKind::gossip:
      return std::make_unique<GossipModel>(g, std::move(xi));
    case ModelKind::weighted_median: {
      WeightedMedianParams params;
      params.k = w.k;
      params.sampling = w.sampling;
      params.track_extrema = w.track_extrema;
      return std::make_unique<WeightedMedianModel>(g, std::move(xi),
                                                   params);
    }
    case ModelKind::hegselmann_krause: {
      HegselmannKrauseParams params;
      params.confidence = 0.25;
      params.track_extrema = w.track_extrema;
      return std::make_unique<HegselmannKrauseModel>(g, std::move(xi),
                                                     params);
    }
    default:
      std::cerr << "perf_baseline: unsupported model kind\n";
      std::exit(1);
  }
}

// Each workload is timed as best-of-kReps repetitions of >= min_time
// seconds.  The max (not the mean) is recorded: this container shares
// its core with co-tenants whose bursts depress a continuous mean by
// up to 30%, while the best rep approximates the unloaded capability of
// the machine -- which is what a regression gate should compare
// against, and what a fresh run can actually reproduce.
constexpr int kReps = 6;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Steps/sec of the recorded single-step path.  Tracked-extrema runs
/// read the discrepancy every step (the pre-kernel K(t) workload shape).
double measure_single(const Workload& w, const Graph& g, double min_time) {
  auto process = build_process(w, g);
  Rng rng(3);
  volatile double sink = 0.0;
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    std::int64_t steps = 0;
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
      for (std::int64_t i = 0; i < kBurst; ++i) {
        process->step(rng);
        if (w.track_extrema) {
          sink = process->state().discrepancy();
        }
      }
      steps += kBurst;
      elapsed = seconds_since(start);
    } while (elapsed < min_time);
    best = std::max(best, static_cast<double>(steps) / elapsed);
  }
  (void)sink;
  return best;
}

/// Steps/sec of the burst kernel.  Tracked-extrema runs read the
/// discrepancy once per burst (the check-interval shape of a scenario).
double measure_burst(const Workload& w, const Graph& g, double min_time) {
  auto process = build_process(w, g);
  Rng rng(3);
  volatile double sink = 0.0;
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    std::int64_t steps = 0;
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
      process->step_burst(rng, kBurst);
      if (w.track_extrema) {
        sink = process->state().discrepancy();
      } else {
        sink = process->state().phi();
      }
      steps += kBurst;
      elapsed = seconds_since(start);
    } while (elapsed < min_time);
    best = std::max(best, static_cast<double>(steps) / elapsed);
  }
  (void)sink;
  return best;
}

std::string json_number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  double min_time = 0.3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--min-time" && i + 1 < argc) {
      min_time = std::stod(argv[++i]);
    } else {
      std::cerr << "usage: perf_baseline [--out FILE] [--min-time SEC]\n";
      return 1;
    }
  }

  json::Object doc;
  doc.emplace_back("bench", "BENCH_8");
  doc.emplace_back(
      "description",
      "steps/sec of the averaging-process stepping paths (single = "
      "recorded per-step path, burst = chunked batched-rng kernel) over "
      "every devirtualized kernel variant, the reorder mirror, an "
      "n-scaling curve to 10M nodes, and the generalized model family "
      "(voter, gossip, weighted_median, hegselmann_krause)");
  doc.emplace_back(
      "regenerate",
      "cmake -B build -S . && cmake --build build --target perf_baseline "
      "&& build/bench/perf_baseline --min-time 0.5 --out BENCH_8.json");
  doc.emplace_back("build", build_info_json());
  doc.emplace_back("burst_steps", kBurst);
  doc.emplace_back("measure",
                   "best of " + std::to_string(kReps) +
                       " repetitions, each >= min_time seconds");
  json::Array workloads;
  // Consecutive workloads over the same topology share one build (the
  // graph is immutable; process state is rebuilt per measurement).
  std::string cached_key;
  std::unique_ptr<Graph> cached_graph;
  for (const Workload& w : kWorkloads) {
    const std::string key =
        std::string(w.graph) + "/" + std::to_string(w.n);
    if (cached_key != key) {
      cached_graph = std::make_unique<Graph>(build_bench_graph(w));
      cached_key = key;
    }
    const Graph& g = *cached_graph;
    const double single = measure_single(w, g, min_time);
    const double burst = measure_burst(w, g, min_time);
    json::Object row;
    row.emplace_back("model", model_kind_name(w.kind));
    row.emplace_back("graph", w.graph);
    row.emplace_back("n", static_cast<std::int64_t>(w.n));
    row.emplace_back("k", w.k);
    row.emplace_back("sampling",
                     w.sampling == SamplingMode::without_replacement
                         ? "without_replacement"
                         : "with_replacement");
    row.emplace_back("track_extrema", w.track_extrema);
    row.emplace_back("reorder", w.reorder);
    row.emplace_back("single_step_sps", single);
    row.emplace_back("burst_sps", burst);
    row.emplace_back("burst_over_single", burst / single);
    workloads.push_back(json::Value(std::move(row)));
    std::cerr << model_kind_name(w.kind) << " "
              << w.graph << " n=" << w.n << " k=" << w.k
              << (w.sampling == SamplingMode::with_replacement ? " withrep"
                                                               : "")
              << (w.track_extrema ? " extrema" : "")
              << (w.reorder ? " reorder" : "") << ": single "
              << json_number(single / 1e6) << " M/s, burst "
              << json_number(burst / 1e6) << " M/s ("
              << json_number(burst / single) << "x)\n";
  }
  doc.emplace_back("workloads", std::move(workloads));
  const std::string text = json::Value(std::move(doc)).dump(2) + "\n";

  if (out_path.empty()) {
    std::cout << text;
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "perf_baseline: cannot open " << out_path << "\n";
      return 1;
    }
    out << text;
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
