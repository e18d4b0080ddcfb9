// Pinned bytes of every registered scenario but trajectory, whose rows
// RowGoldens pins (tools/opindyn-lint fails a scenario pinned in
// neither): the aggregate `--csv` and, where the scenario streams one,
// the per-replica `--rows-csv`, each as a 64-bit FNV-1a digest plus a
// byte count.  Most digests were taken from the scenario layer before
// the single-model scenarios became forced-kind registrations of
// cross_model, before gossip moved onto run_until_converged, and before
// the baselines' hand-written round loops and the hand-built HK /
// duality models were replaced by make_process; every run here must
// reproduce them at one and at four threads, with metrics on.  The
// specs are small and cover
// the branches the helpers have to keep: sweeps, unconverged replicas
// (edge and voter hit max-steps, degroot hits max-steps), the voter
// per-step stop, the baselines' per-round stop, the plain potential
// (edge / gossip rows), the spectral predictions, the default HK bound
// and the fold-built rows.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "src/engine/runner.h"
#include "src/support/metrics.h"

namespace opindyn {
namespace engine {
namespace {

struct ScenarioGolden {
  const char* name;
  std::map<std::string, std::string> spec;
  std::uint64_t csv_fnv1a;
  std::size_t csv_bytes;
  /// Digest and size of the rows CSV; 0 bytes = the run streams none.
  std::uint64_t rows_fnv1a;
  std::size_t rows_bytes;
};

const ScenarioGolden kGoldens[] = {
    {"node",
     {{"scenario", "node"}, {"graph", "cycle"}, {"n", "16"}, {"replicas", "8"},
      {"seed", "3"}, {"init", "gaussian"}, {"eps", "1e-8"},
      {"sweep", "k:1,2"}},
     0x5347036715f25007ULL, 200, 0x0000000000000000ULL, 0},
    {"edge",
     {{"scenario", "edge"}, {"graph", "random_regular"}, {"degree", "4"},
      {"n", "16"}, {"replicas", "8"}, {"seed", "4"}, {"init", "gaussian"},
      {"eps", "1e-8"}, {"max-steps", "640"}},
     0x42e0ea234bfe7c42ULL, 142, 0x0000000000000000ULL, 0},
    {"lazy",
     {{"scenario", "lazy"}, {"graph", "complete"}, {"n", "12"},
      {"replicas", "8"}, {"seed", "6"}, {"eps", "1e-8"},
      {"sweep", "alpha:0.3,0.5"}},
     0xb51a6738e0e64959ULL, 210, 0x0000000000000000ULL, 0},
    {"weighted_median",
     {{"scenario", "weighted_median"}, {"graph", "complete"}, {"n", "12"},
      {"replicas", "8"}, {"seed", "7"}, {"init", "gaussian"}, {"eps", "1e-6"},
      {"max-steps", "5000"}, {"sweep", "k:1,3"}},
     0x69409303954d0145ULL, 220, 0x0000000000000000ULL, 0},
    {"cross_model",
     {{"scenario", "cross_model"}, {"graph", "cycle"}, {"n", "12"},
      {"replicas", "6"}, {"seed", "5"}, {"init", "gaussian"}, {"eps", "1e-6"},
      {"max-steps", "200000"},
      {"sweep", "model:node,edge,voter,weighted_median"}},
     0x5606b991b00de353ULL, 368, 0xcc44c30e782490c1ULL, 1257},
    {"node_vs_edge",
     {{"scenario", "node_vs_edge"}, {"graph", "cycle"}, {"n", "16"},
      {"replicas", "8"}, {"seed", "2"}, {"init", "gaussian"}, {"eps", "1e-8"}},
     0x83ef779b8cdfa194ULL, 144, 0x0000000000000000ULL, 0},
    {"voter",
     {{"scenario", "voter"}, {"graph", "cycle"}, {"n", "12"},
      {"replicas", "8"}, {"seed", "8"}, {"sweep", "max-steps:150,1000000"}},
     0xede010f4e995dbe7ULL, 159, 0x0000000000000000ULL, 0},
    {"gossip",
     {{"scenario", "gossip"}, {"graph", "cycle"}, {"n", "16"},
      {"replicas", "8"}, {"seed", "5"}, {"init", "gaussian"}, {"eps", "1e-8"}},
     0xbf11a0c9b6f7a6baULL, 128, 0x0000000000000000ULL, 0},
    {"averaging_vs_voter",
     {{"scenario", "averaging_vs_voter"}, {"graph", "complete"}, {"n", "10"},
      {"replicas", "6"}, {"seed", "3"}},
     0x398cf8b15ee7b2f4ULL, 141, 0x0000000000000000ULL, 0},
    {"gossip_vs_unilateral",
     {{"scenario", "gossip_vs_unilateral"}, {"graph", "random_regular"},
      {"degree", "4"}, {"n", "16"}, {"replicas", "8"}, {"seed", "2"},
      {"init", "gaussian"}, {"eps", "1e-8"}},
     0x6480c2cdbf91a7e9ULL, 376, 0x0000000000000000ULL, 0},
    {"whp_tail",
     {{"scenario", "whp_tail"}, {"graph", "cycle"}, {"n", "16"},
      {"replicas", "12"}, {"seed", "4"}, {"eps", "1e-6"}},
     0x89c111d9ca7a6a4aULL, 190, 0x806cc891ab6a6035ULL, 1235},
    {"k_ablation",
     {{"scenario", "k_ablation"}, {"graph", "random_regular"}, {"degree", "4"},
      {"n", "16"}, {"replicas", "8"}, {"seed", "9"}, {"init", "gaussian"},
      {"eps", "1e-8"}, {"sweep", "k:1,2"}},
     0x9db3c3216119cab8ULL, 209, 0x0000000000000000ULL, 0},
    {"thm22_convergence",
     {{"scenario", "thm22_convergence"}, {"graph", "random_regular"},
      {"degree", "4"}, {"n", "16"}, {"replicas", "8"}, {"seed", "10"},
      {"init", "gaussian"}, {"eps", "1e-8"}, {"sweep", "alpha:0.3,0.5"}},
     0x3167ef5f91ff9278ULL, 265, 0x0000000000000000ULL, 0},
    {"thm22_variance",
     {{"scenario", "thm22_variance"}, {"graph", "complete"}, {"n", "8"},
      {"replicas", "6"}, {"seed", "11"}, {"init", "gaussian"},
      {"eps", "1e-8"}},
     0xcfcfdbea0f77bb1bULL, 207, 0x74c2afb428922acaULL, 302},
    {"thm24_edge_convergence",
     {{"scenario", "thm24_edge_convergence"}, {"graph", "cycle"}, {"n", "12"},
      {"replicas", "6"}, {"seed", "12"}, {"init", "gaussian"},
      {"eps", "1e-6"}},
     0x67d476d111bbfc85ULL, 172, 0xe5ecb03d2f6ffdd6ULL, 309},
    {"thm24_edge_variance",
     {{"scenario", "thm24_edge_variance"}, {"graph", "star"}, {"n", "9"},
      {"replicas", "6"}, {"seed", "13"}, {"init", "hub_spike"},
      {"center", "none"}, {"eps", "1e-6"}},
     0xe129ca368bfab85bULL, 268, 0x922b69f3bd391df2ULL, 726},
    {"prop58_variance",
     {{"scenario", "prop58_variance"}, {"graph", "cycle"}, {"n", "10"},
      {"replicas", "6"}, {"seed", "14"}, {"init", "alternating"},
      {"eps", "1e-6"}},
     0xadb1e655f705042cULL, 179, 0xb1dd988e16584c59ULL, 305},
    {"propB2_node",
     {{"scenario", "propB2_node"}, {"graph", "cycle"}, {"n", "12"},
      {"replicas", "6"}, {"seed", "15"}, {"init", "f2_walk"},
      {"center", "none"}, {"eps", "1e-4"}},
     0xf0c8a51e6cf5b1ceULL, 162, 0x22412fa6ab49648dULL, 244},
    {"propB2_edge",
     {{"scenario", "propB2_edge"}, {"graph", "cycle"}, {"n", "12"},
      {"replicas", "6"}, {"seed", "16"}, {"init", "f2_laplacian"},
      {"center", "none"}, {"eps", "1e-4"}},
     0xa1af0a9bcbfbc59eULL, 131, 0x8639bd5e2238ca2fULL, 244},
    {"degroot",
     {{"scenario", "degroot"}, {"graph", "cycle"}, {"n", "16"}, {"seed", "3"},
      {"init", "gaussian"}, {"eps", "1e-8"},
      {"sweep", "max-steps:20,100000"}},
     0xf22d9ebefa7f13f4ULL, 200, 0x0000000000000000ULL, 0},
    {"friedkin_johnsen",
     {{"scenario", "friedkin_johnsen"}, {"graph", "random_regular"},
      {"degree", "4"}, {"n", "16"}, {"seed", "4"}, {"init", "gaussian"},
      {"eps", "1e-10"}, {"sweep", "alpha:0.3,0.9"}},
     0xb4a3cf20e1b5834fULL, 237, 0x0000000000000000ULL, 0},
    {"hegselmann_krause",
     {{"scenario", "hegselmann_krause"}, {"graph", "complete"}, {"n", "16"},
      {"replicas", "8"}, {"seed", "5"}, {"init", "uniform"},
      {"sweep", "confidence:0,0.6"}},
     0xa6415a665715195eULL, 218, 0x0000000000000000ULL, 0},
    {"duality",
     {{"scenario", "duality"}, {"graph", "cycle"}, {"n", "12"},
      {"replicas", "6"}, {"seed", "6"}, {"init", "gaussian"},
      {"sweep", "k:1,2"}},
     0x93f9a398638bc908ULL, 163, 0x64ab4aa309059957ULL, 479},
    {"martingale",
     {{"scenario", "martingale"}, {"graph", "star"}, {"n", "9"},
      {"replicas", "6"}, {"seed", "7"}, {"init", "hub_spike"},
      {"center", "none"}, {"sweep", "k:1,2"}},
     0xa1f22f033ed0f653ULL, 290, 0x27def44d90dc3a08ULL, 256},
    {"qchain",
     {{"scenario", "qchain"}, {"graph", "cycle"}, {"n", "8"}, {"seed", "17"},
      {"sweep", "k:1,2"}},
     0x80f487604c1ca432ULL, 278, 0x0000000000000000ULL, 0},
    {"propB1_drop",
     {{"scenario", "propB1_drop"}, {"graph", "petersen"}, {"n", "10"},
      {"seed", "18"}, {"sweep", "k:1,2"}},
     0x3c0238c7492d20beULL, 388, 0x0000000000000000ULL, 0},
    {"corE2_bounds",
     {{"scenario", "corE2_bounds"}, {"graph", "lollipop"}, {"n", "10"},
      {"replicas", "8"}, {"seed", "19"}, {"init", "uniform"},
      {"horizon", "40"}, {"sweep", "model:node,edge"}},
     0x46e3e6f0563d4284ULL, 309, 0x0000000000000000ULL, 0},
    {"future_extensions",
     {{"scenario", "future_extensions"}, {"graph", "star"}, {"n", "6"},
      {"replicas", "8"}, {"seed", "20"}, {"init", "gaussian"},
      {"eps", "1e-8"}, {"sweep", "model:node,edge"}},
     0xc07e184ba136e676ULL, 335, 0x0000000000000000ULL, 0},
};

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string take_file(const std::string& path) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    bytes = out.str();
  }
  std::remove(path.c_str());
  return bytes;
}

struct Outputs {
  std::string csv;
  std::string rows;
};

Outputs run_golden(const ScenarioGolden& golden, std::size_t threads) {
  ExperimentSpec spec = parse_spec(golden.spec);
  spec.threads = threads;
  spec.print_table = false;
  const std::string stem = ::testing::TempDir() + "opindyn_scenario_golden_" +
                           golden.name + "_" + std::to_string(threads);
  const std::string csv_path = stem + ".csv";
  const std::string rows_path = stem + "_rows.csv";
  {
    CsvSink csv(csv_path);
    std::optional<CsvSink> rows;
    std::vector<RowSink*> row_sinks;
    if (golden.rows_bytes > 0) {
      row_sinks.push_back(&rows.emplace(rows_path));
    }
    MetricsRegistry registry;
    run_experiment(spec, {&csv}, row_sinks, &registry);
  }
  Outputs out;
  out.csv = take_file(csv_path);
  if (golden.rows_bytes > 0) {
    out.rows = take_file(rows_path);
  }
  return out;
}

TEST(ScenarioGoldens, CsvAndRowsMatchPinnedDigestsAtOneAndFourThreads) {
  for (const ScenarioGolden& golden : kGoldens) {
    for (const std::size_t threads : {1, 4}) {
      SCOPED_TRACE(std::string(golden.name) + " threads=" +
                   std::to_string(threads));
      const Outputs out = run_golden(golden, threads);
      EXPECT_EQ(out.csv.size(), golden.csv_bytes) << out.csv;
      EXPECT_EQ(fnv1a(out.csv), golden.csv_fnv1a) << out.csv;
      EXPECT_EQ(out.rows.size(), golden.rows_bytes);
      if (golden.rows_bytes > 0) {
        EXPECT_EQ(fnv1a(out.rows), golden.rows_fnv1a);
      }
    }
  }
}

}  // namespace
}  // namespace engine
}  // namespace opindyn
