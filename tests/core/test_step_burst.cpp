// ISSUE-5 regression suite for the burst stepping kernel: step_burst(n)
// must consume exactly the rng draw sequence of n single step() calls
// and leave bit-identical state, for both models and every sampling
// variant -- and therefore the engine's golden CSVs (captured from the
// pre-kernel build) must stay byte-identical at any thread count.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/edge_model.h"
#include "src/core/initial_values.h"
#include "src/core/node_model.h"
#include "src/engine/runner.h"
#include "src/graph/generators.h"
#include "src/support/rng.h"

namespace opindyn {
namespace {

// Burst split with a zero-length burst, tiny bursts, and one large
// remainder -- exercises every chunking pattern a harness produces.
void run_in_bursts(AveragingProcess& process, Rng& rng,
                   std::int64_t total) {
  process.step_burst(rng, 0);
  process.step_burst(rng, 1);
  process.step_burst(rng, 7);
  process.step_burst(rng, 100);
  process.step_burst(rng, total - 108);
}

template <typename Process>
void expect_bit_identical(const Process& single, const Process& burst) {
  ASSERT_EQ(single.time(), burst.time());
  const std::vector<double>& a = single.state().values();
  const std::vector<double>& b = burst.state().values();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t u = 0; u < a.size(); ++u) {
    // Bitwise equality, not EXPECT_NEAR: the kernel performs the exact
    // arithmetic of apply_update.
    ASSERT_EQ(a[u], b[u]) << "value diverged at node " << u;
  }
  EXPECT_EQ(single.state().phi(), burst.state().phi());
  EXPECT_EQ(single.state().phi_plain(), burst.state().phi_plain());
  EXPECT_EQ(single.state().weighted_average(),
            burst.state().weighted_average());
  EXPECT_EQ(single.state().l2_squared(), burst.state().l2_squared());
}

TEST(StepBurst, NodeModelMatchesSingleStepsForEveryVariant) {
  // Degree 8 makes every specialised k legal without replacement; at
  // k = 8 the subset is the whole row, Floyd's hardest duplicate case.
  // (A circulant: the pairing model almost never accepts degree 8.)
  const Graph g = gen::circulant(24, {1, 3, 7, 10});
  ASSERT_TRUE(g.is_regular());
  ASSERT_EQ(g.min_degree(), 8);
  Rng init_rng(7);
  const auto xi = initial::gaussian(init_rng, g.node_count(), 0.0, 1.0);
  constexpr std::int64_t kTotal = 600;
  for (const bool lazy : {false, true}) {
    for (const SamplingMode sampling :
         {SamplingMode::without_replacement,
          SamplingMode::with_replacement}) {
      for (const std::int64_t k : {1, 2, 3, 4, 8}) {
        NodeModelParams params;
        params.alpha = 0.45;
        params.k = k;
        params.lazy = lazy;
        params.sampling = sampling;
        NodeModel single(g, xi, params);
        NodeModel burst(g, xi, params);
        Rng rng_single(9001);
        Rng rng_burst(9001);
        for (std::int64_t i = 0; i < kTotal; ++i) {
          single.step(rng_single);
        }
        run_in_bursts(burst, rng_burst, kTotal);
        SCOPED_TRACE("lazy=" + std::to_string(lazy) + " k=" +
                     std::to_string(k) + " with_replacement=" +
                     std::to_string(sampling ==
                                    SamplingMode::with_replacement));
        expect_bit_identical(single, burst);
        // Same number of raw draws consumed: the streams stay in
        // lockstep after the runs.
        EXPECT_EQ(rng_single(), rng_burst());
      }
    }
  }
}

TEST(StepBurst, EdgeModelMatchesSingleSteps) {
  // The lollipop is irregular (degree spread matters: the general arc
  // topology); the 4-regular graph takes the power-of-two shift
  // topology with one uniform pi.
  Rng graph_rng(57);
  const std::vector<Graph> graphs = {gen::lollipop(6, 6),
                                     gen::random_regular(graph_rng, 20, 4)};
  constexpr std::int64_t kTotal = 600;
  for (const Graph& g : graphs) {
    Rng init_rng(13);
    const auto xi = initial::uniform(init_rng, g.node_count(), -2.0, 2.0);
    for (const bool lazy : {false, true}) {
      EdgeModelParams params;
      params.alpha = 0.6;
      params.lazy = lazy;
      EdgeModel single(g, xi, params);
      EdgeModel burst(g, xi, params);
      Rng rng_single(42);
      Rng rng_burst(42);
      for (std::int64_t i = 0; i < kTotal; ++i) {
        single.step(rng_single);
      }
      run_in_bursts(burst, rng_burst, kTotal);
      SCOPED_TRACE("regular=" + std::to_string(g.is_regular()) +
                   " lazy=" + std::to_string(lazy));
      expect_bit_identical(single, burst);
      EXPECT_EQ(single.state().discrepancy(), burst.state().discrepancy());
      EXPECT_EQ(rng_single(), rng_burst());
    }
  }
}

// Heavy-tailed degrees exercise the irregular-topology kernels (CSR
// offsets + per-node pi) that the regular grid above never reaches;
// the odd step total leaves a remainder at every chunk and unroll
// width.
TEST(StepBurst, NodeModelIrregularGraphMatchesSingleSteps) {
  Rng graph_rng(23);
  const Graph g = gen::preferential_attachment(graph_rng, 40, 2);
  ASSERT_FALSE(g.is_regular());
  Rng init_rng(11);
  const auto xi = initial::gaussian(init_rng, g.node_count(), 0.0, 1.0);
  constexpr std::int64_t kTotal = 601;
  for (const SamplingMode sampling :
       {SamplingMode::without_replacement,
        SamplingMode::with_replacement}) {
    for (const std::int64_t k : {std::int64_t{1}, std::int64_t{2}}) {
      NodeModelParams params;
      params.alpha = 0.35;
      params.k = k;
      params.sampling = sampling;
      NodeModel single(g, xi, params);
      NodeModel burst(g, xi, params);
      Rng rng_single(607);
      Rng rng_burst(607);
      for (std::int64_t i = 0; i < kTotal; ++i) {
        single.step(rng_single);
      }
      burst.step_burst(rng_burst, 493);
      burst.step_burst(rng_burst, kTotal - 493);
      SCOPED_TRACE("k=" + std::to_string(k) + " with_replacement=" +
                   std::to_string(sampling ==
                                  SamplingMode::with_replacement));
      expect_bit_identical(single, burst);
      EXPECT_EQ(single.state().discrepancy(), burst.state().discrepancy());
      EXPECT_EQ(rng_single(), rng_burst());
    }
  }
}

// The general arc topology (arc source array + per-node pi) on
// heavy-tailed degrees, with every chunk and unroll remainder.
TEST(StepBurst, EdgeModelIrregularGraphMatchesSingleSteps) {
  Rng graph_rng(29);
  const Graph g = gen::preferential_attachment(graph_rng, 48, 2);
  ASSERT_FALSE(g.is_regular());
  Rng init_rng(17);
  const auto xi = initial::uniform(init_rng, g.node_count(), -1.0, 1.0);
  constexpr std::int64_t kTotal = 701;
  for (const bool lazy : {false, true}) {
    EdgeModelParams params;
    params.alpha = 0.55;
    params.lazy = lazy;
    EdgeModel single(g, xi, params);
    EdgeModel burst(g, xi, params);
    Rng rng_single(89);
    Rng rng_burst(89);
    for (std::int64_t i = 0; i < kTotal; ++i) {
      single.step(rng_single);
    }
    run_in_bursts(burst, rng_burst, kTotal);
    SCOPED_TRACE("lazy=" + std::to_string(lazy));
    expect_bit_identical(single, burst);
    EXPECT_EQ(single.state().discrepancy(), burst.state().discrepancy());
    EXPECT_EQ(rng_single(), rng_burst());
  }
}

// k outside the specialised set {1, 2, 3, 4, 8} routes to the generic
// per-step loop, which must honour the same stream contract.
TEST(StepBurst, GenericKFallbackMatchesSingleSteps) {
  Rng graph_rng(31);
  const Graph g = gen::random_regular(graph_rng, 32, 6);
  Rng init_rng(19);
  const auto xi = initial::gaussian(init_rng, g.node_count(), 0.0, 1.0);
  constexpr std::int64_t kTotal = 600;
  for (const SamplingMode sampling :
       {SamplingMode::without_replacement,
        SamplingMode::with_replacement}) {
    NodeModelParams params;
    params.alpha = 0.5;
    params.k = 5;
    params.sampling = sampling;
    NodeModel single(g, xi, params);
    NodeModel burst(g, xi, params);
    Rng rng_single(404);
    Rng rng_burst(404);
    for (std::int64_t i = 0; i < kTotal; ++i) {
      single.step(rng_single);
    }
    run_in_bursts(burst, rng_burst, kTotal);
    SCOPED_TRACE("with_replacement=" +
                 std::to_string(sampling ==
                                SamplingMode::with_replacement));
    expect_bit_identical(single, burst);
    EXPECT_EQ(rng_single(), rng_burst());
  }
}

// ---- engine goldens (captured from the pre-kernel seed build) --------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

constexpr const char kWhpTailAggregateGolden[] =
    "scenario,graph,n,replicas,alpha,model,median T,q90/median,"
    "q99/median,max/median\n"
    "whp_tail,cycle(12),12,16,0.3,NodeModel,948,1.237,1.313,1.313\n"
    "whp_tail,cycle(12),12,16,0.3,EdgeModel,1029,1.324,1.391,1.391\n"
    "whp_tail,cycle(12),12,16,0.5,NodeModel,1152,1.211,1.331,1.331\n"
    "whp_tail,cycle(12),12,16,0.5,EdgeModel,1269,1.208,1.310,1.310\n";

constexpr const char kWhpTailRowsGolden[] =
    R"(scenario,graph,n,replicas,alpha,model,replica,T_eps,T/median
whp_tail,cycle(12),12,16,0.3,NodeModel,0,1035,1.0918
whp_tail,cycle(12),12,16,0.3,NodeModel,1,1110,1.1709
whp_tail,cycle(12),12,16,0.3,NodeModel,2,735,0.7753
whp_tail,cycle(12),12,16,0.3,NodeModel,3,948,1.0000
whp_tail,cycle(12),12,16,0.3,NodeModel,4,855,0.9019
whp_tail,cycle(12),12,16,0.3,NodeModel,5,777,0.8196
whp_tail,cycle(12),12,16,0.3,NodeModel,6,1038,1.0949
whp_tail,cycle(12),12,16,0.3,NodeModel,7,1173,1.2373
whp_tail,cycle(12),12,16,0.3,NodeModel,8,996,1.0506
whp_tail,cycle(12),12,16,0.3,NodeModel,9,588,0.6203
whp_tail,cycle(12),12,16,0.3,NodeModel,10,672,0.7089
whp_tail,cycle(12),12,16,0.3,NodeModel,11,1245,1.3133
whp_tail,cycle(12),12,16,0.3,NodeModel,12,735,0.7753
whp_tail,cycle(12),12,16,0.3,NodeModel,13,1068,1.1266
whp_tail,cycle(12),12,16,0.3,NodeModel,14,753,0.7943
whp_tail,cycle(12),12,16,0.3,NodeModel,15,741,0.7816
whp_tail,cycle(12),12,16,0.3,EdgeModel,0,1362,1.3236
whp_tail,cycle(12),12,16,0.3,EdgeModel,1,1029,1.0000
whp_tail,cycle(12),12,16,0.3,EdgeModel,2,783,0.7609
whp_tail,cycle(12),12,16,0.3,EdgeModel,3,903,0.8776
whp_tail,cycle(12),12,16,0.3,EdgeModel,4,1200,1.1662
whp_tail,cycle(12),12,16,0.3,EdgeModel,5,1056,1.0262
whp_tail,cycle(12),12,16,0.3,EdgeModel,6,1278,1.2420
whp_tail,cycle(12),12,16,0.3,EdgeModel,7,780,0.7580
whp_tail,cycle(12),12,16,0.3,EdgeModel,8,1245,1.2099
whp_tail,cycle(12),12,16,0.3,EdgeModel,9,1431,1.3907
whp_tail,cycle(12),12,16,0.3,EdgeModel,10,831,0.8076
whp_tail,cycle(12),12,16,0.3,EdgeModel,11,888,0.8630
whp_tail,cycle(12),12,16,0.3,EdgeModel,12,936,0.9096
whp_tail,cycle(12),12,16,0.3,EdgeModel,13,1146,1.1137
whp_tail,cycle(12),12,16,0.3,EdgeModel,14,807,0.7843
whp_tail,cycle(12),12,16,0.3,EdgeModel,15,1026,0.9971
whp_tail,cycle(12),12,16,0.5,NodeModel,0,1533,1.3307
whp_tail,cycle(12),12,16,0.5,NodeModel,1,1299,1.1276
whp_tail,cycle(12),12,16,0.5,NodeModel,2,999,0.8672
whp_tail,cycle(12),12,16,0.5,NodeModel,3,1230,1.0677
whp_tail,cycle(12),12,16,0.5,NodeModel,4,1152,1.0000
whp_tail,cycle(12),12,16,0.5,NodeModel,5,1257,1.0911
whp_tail,cycle(12),12,16,0.5,NodeModel,6,903,0.7839
whp_tail,cycle(12),12,16,0.5,NodeModel,7,1395,1.2109
whp_tail,cycle(12),12,16,0.5,NodeModel,8,1146,0.9948
whp_tail,cycle(12),12,16,0.5,NodeModel,9,921,0.7995
whp_tail,cycle(12),12,16,0.5,NodeModel,10,717,0.6224
whp_tail,cycle(12),12,16,0.5,NodeModel,11,1287,1.1172
whp_tail,cycle(12),12,16,0.5,NodeModel,12,1212,1.0521
whp_tail,cycle(12),12,16,0.5,NodeModel,13,1104,0.9583
whp_tail,cycle(12),12,16,0.5,NodeModel,14,921,0.7995
whp_tail,cycle(12),12,16,0.5,NodeModel,15,1056,0.9167
whp_tail,cycle(12),12,16,0.5,EdgeModel,0,1662,1.3097
whp_tail,cycle(12),12,16,0.5,EdgeModel,1,1269,1.0000
whp_tail,cycle(12),12,16,0.5,EdgeModel,2,1182,0.9314
whp_tail,cycle(12),12,16,0.5,EdgeModel,3,534,0.4208
whp_tail,cycle(12),12,16,0.5,EdgeModel,4,1533,1.2080
whp_tail,cycle(12),12,16,0.5,EdgeModel,5,1347,1.0615
whp_tail,cycle(12),12,16,0.5,EdgeModel,6,1095,0.8629
whp_tail,cycle(12),12,16,0.5,EdgeModel,7,1149,0.9054
whp_tail,cycle(12),12,16,0.5,EdgeModel,8,1488,1.1726
whp_tail,cycle(12),12,16,0.5,EdgeModel,9,1350,1.0638
whp_tail,cycle(12),12,16,0.5,EdgeModel,10,1506,1.1868
whp_tail,cycle(12),12,16,0.5,EdgeModel,11,1191,0.9385
whp_tail,cycle(12),12,16,0.5,EdgeModel,12,1173,0.9243
whp_tail,cycle(12),12,16,0.5,EdgeModel,13,1482,1.1678
whp_tail,cycle(12),12,16,0.5,EdgeModel,14,1236,0.9740
whp_tail,cycle(12),12,16,0.5,EdgeModel,15,1089,0.8582
)";

constexpr const char kThm22ConvergenceGolden[] =
    "scenario,graph,n,replicas,alpha,1-l2(P),T measured,+-CI(T),"
    "T predicted (B.1),theorem scale,meas/pred\n"
    "thm22_convergence,cycle(12),12,8,0.4,6.70e-02,1140,105,5139,3360,"
    "0.222\n"
    "thm22_convergence,cycle(12),12,8,0.6,6.70e-02,1502,138,5139,3360,"
    "0.292\n";

TEST(StepBurst, WhpTailGoldenCsvBytesSurviveTheKernelSwap) {
  engine::ExperimentSpec spec;
  spec.scenario = "whp_tail";
  spec.graph.family = "cycle";
  spec.graph.n = 12;
  spec.replicas = 16;
  spec.seed = 5;
  spec.convergence.epsilon = 1e-6;
  spec.sweeps = engine::parse_sweeps("alpha:0.3,0.5");
  spec.print_table = false;
  for (const std::size_t threads : {1, 4, 8}) {
    spec.threads = threads;
    const std::string base =
        ::testing::TempDir() + "burst_whp_" + std::to_string(threads);
    {
      engine::CsvSink csv(base + ".csv");
      engine::CsvSink rows_csv(base + "_rows.csv");
      std::vector<engine::RowSink*> sinks{&csv};
      std::vector<engine::RowSink*> row_sinks{&rows_csv};
      engine::run_experiment(spec, sinks, row_sinks);
    }
    EXPECT_EQ(read_file(base + ".csv"), kWhpTailAggregateGolden)
        << "threads=" << threads;
    EXPECT_EQ(read_file(base + "_rows.csv"), kWhpTailRowsGolden)
        << "threads=" << threads;
    std::remove((base + ".csv").c_str());
    std::remove((base + "_rows.csv").c_str());
  }
}

TEST(StepBurst, Thm22ConvergenceGoldenCsvBytesSurviveTheKernelSwap) {
  engine::ExperimentSpec spec;
  spec.scenario = "thm22_convergence";
  spec.graph.family = "cycle";
  spec.graph.n = 12;
  spec.replicas = 8;
  spec.seed = 9;
  spec.convergence.epsilon = 1e-6;
  spec.sweeps = engine::parse_sweeps("alpha:0.4,0.6");
  spec.print_table = false;
  for (const std::size_t threads : {1, 4, 8}) {
    spec.threads = threads;
    const std::string path = ::testing::TempDir() + "burst_thm22_" +
                             std::to_string(threads) + ".csv";
    {
      engine::CsvSink csv(path);
      std::vector<engine::RowSink*> sinks{&csv};
      engine::run_experiment(spec, sinks);
    }
    EXPECT_EQ(read_file(path), kThm22ConvergenceGolden)
        << "threads=" << threads;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace opindyn
