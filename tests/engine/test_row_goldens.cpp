// Pinned bytes of the per-replica row channel (`--rows-csv`).  The
// expected files were written by the string-built row channel that the
// byte-block channel replaced; every run here must reproduce them byte
// for byte at one and at four threads, and with metrics on.  Covers the
// unit-emitted rows (trajectory, cross_model), the fold-built rows
// (thm22_variance, whp_tail), sweep-label columns and a quoted graph
// name.
//
// Trajectory replicas step in lane groups where the lane kernel covers
// them, so the trajectory bytes are also checked with lanes off.
//
// Larger trajectory runs are pinned by digest (64-bit FNV-1a of the
// whole file, byte and row counts), written while every row still ran
// the exact potential pass: one where the certified O(1) interval now
// settles most printed digits (a slow-mixing cycle) and
// two where the exact pass prints most of them (a complete graph
// checked every step, and a random-regular graph decaying far below
// 1e-12 into rounding noise).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "src/core/lane_kernel.h"
#include "src/engine/runner.h"
#include "src/support/metrics.h"

namespace opindyn {
namespace engine {
namespace {

struct Golden {
  const char* name;
  std::map<std::string, std::string> spec;
  const char* rows_csv;
};

const Golden kGoldens[] = {
    {"trajectory",
     {{"scenario", "trajectory"},
      {"graph", "random_regular"},
      {"degree", "4"},
      {"n", "16"},
      {"replicas", "3"},
      {"horizon", "32"},
      {"check-interval", "8"},
      {"seed", "3"},
      {"init", "gaussian"}},
     "scenario,graph,n,replicas,replica,step,M,phi\n"
     "trajectory,\"random_regular(16,4)\",16,3,0,0,-2.77556e-17,5.1390e-01\n"
     "trajectory,\"random_regular(16,4)\",16,3,0,8,-0.0357512,4.9141e-01\n"
     "trajectory,\"random_regular(16,4)\",16,3,0,16,-0.0702719,2.3420e-01\n"
     "trajectory,\"random_regular(16,4)\",16,3,0,24,-0.0878861,2.0441e-01\n"
     "trajectory,\"random_regular(16,4)\",16,3,0,32,-0.0603283,1.7333e-01\n"
     "trajectory,\"random_regular(16,4)\",16,3,1,0,-2.77556e-17,5.1390e-01\n"
     "trajectory,\"random_regular(16,4)\",16,3,1,8,0.0533095,3.6023e-01\n"
     "trajectory,\"random_regular(16,4)\",16,3,1,16,-0.039771,3.3845e-01\n"
     "trajectory,\"random_regular(16,4)\",16,3,1,24,-0.0913062,3.3608e-01\n"
     "trajectory,\"random_regular(16,4)\",16,3,1,32,-0.176932,2.5811e-01\n"
     "trajectory,\"random_regular(16,4)\",16,3,2,0,-2.77556e-17,5.1390e-01\n"
     "trajectory,\"random_regular(16,4)\",16,3,2,8,-0.112374,3.9461e-01\n"
     "trajectory,\"random_regular(16,4)\",16,3,2,16,-0.14614,3.9330e-01\n"
     "trajectory,\"random_regular(16,4)\",16,3,2,24,-0.223778,3.2408e-01\n"
     "trajectory,\"random_regular(16,4)\",16,3,2,32,-0.1585,1.5117e-01\n"},
    {"cross_model",
     {{"scenario", "cross_model"},
      {"graph", "cycle"},
      {"n", "12"},
      {"replicas", "3"},
      {"seed", "5"},
      {"eps", "1e-6"},
      {"init", "gaussian"},
      {"sweep", "model:node,edge"}},
     "scenario,graph,n,replicas,model,replica,F,T_eps\n"
     "cross_model,cycle(12),12,3,node,0,0.00104309,867\n"
     "cross_model,cycle(12),12,3,node,1,0.342345,1212\n"
     "cross_model,cycle(12),12,3,node,2,-0.0886886,963\n"
     "cross_model,cycle(12),12,3,edge,0,0.215354,933\n"
     "cross_model,cycle(12),12,3,edge,1,0.422461,1083\n"
     "cross_model,cycle(12),12,3,edge,2,0.197503,933\n"},
    {"thm22_variance",
     {{"scenario", "thm22_variance"},
      {"graph", "complete"},
      {"n", "8"},
      {"replicas", "3"},
      {"seed", "9"},
      {"eps", "1e-8"},
      {"init", "gaussian"},
      {"sweep", "k:1,2"}},
     "scenario,graph,n,replicas,k,replica,F\n"
     "thm22_variance,complete(8),8,3,1,0,2.4763e-01\n"
     "thm22_variance,complete(8),8,3,1,1,9.3832e-02\n"
     "thm22_variance,complete(8),8,3,1,2,9.1995e-03\n"
     "thm22_variance,complete(8),8,3,2,0,4.2226e-02\n"
     "thm22_variance,complete(8),8,3,2,1,2.7579e-01\n"
     "thm22_variance,complete(8),8,3,2,2,5.2282e-02\n"},
};

struct DigestGolden {
  const char* name;
  std::map<std::string, std::string> spec;
  std::uint64_t fnv1a;
  std::size_t bytes;
  std::size_t rows;  // lines, header included
};

const DigestGolden kDigestGoldens[] = {
    {"cycle_screened",
     {{"scenario", "trajectory"},
      {"graph", "cycle"},
      {"n", "2048"},
      {"replicas", "4"},
      {"check-interval", "64"},
      {"seed", "7"},
      {"init", "gaussian"}},
     0xd09ab1304bfd4af0ULL,
     122642,
     2053},
    {"complete_every_step",
     {{"scenario", "trajectory"},
      {"graph", "complete"},
      {"n", "64"},
      {"replicas", "3"},
      {"check-interval", "1"},
      {"horizon", "4096"},
      {"seed", "11"}},
     0x8ac16286a7832732ULL,
     703417,
     12292},
    {"random_regular_below_1e-12",
     {{"scenario", "trajectory"},
      {"graph", "random_regular"},
      {"degree", "4"},
      {"n", "512"},
      {"replicas", "3"},
      {"check-interval", "512"},
      {"horizon", "300000"},
      {"seed", "13"},
      {"init", "gaussian"}},
     0x4e7bd960f08c67a7ULL,
     125510,
     1759},
};

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string rows_csv_of(const char* name,
                        const std::map<std::string, std::string>& keys,
                        std::size_t threads, bool with_metrics) {
  ExperimentSpec spec = parse_spec(keys);
  spec.threads = threads;
  spec.print_table = false;
  const std::string path = ::testing::TempDir() + "opindyn_golden_" + name +
                           "_" + std::to_string(threads) +
                           (with_metrics ? "_m" : "") + ".csv";
  {
    CsvSink rows(path);
    MetricsRegistry registry;
    run_experiment(spec, {}, {&rows}, with_metrics ? &registry : nullptr);
  }
  std::string bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
}

TEST(RowGoldens, RowsCsvMatchesPinnedBytesAtOneAndFourThreads) {
  for (const Golden& golden : kGoldens) {
    SCOPED_TRACE(golden.name);
    EXPECT_EQ(rows_csv_of(golden.name, golden.spec, 1, false), golden.rows_csv);
    EXPECT_EQ(rows_csv_of(golden.name, golden.spec, 4, false), golden.rows_csv);
  }
}

TEST(RowGoldens, RowsCsvMatchesPinnedBytesWithMetricsOn) {
  for (const Golden& golden : kGoldens) {
    SCOPED_TRACE(golden.name);
    EXPECT_EQ(rows_csv_of(golden.name, golden.spec, 1, true), golden.rows_csv);
    EXPECT_EQ(rows_csv_of(golden.name, golden.spec, 4, true), golden.rows_csv);
  }
}

TEST(RowGoldens, LongTrajectoriesMatchPinnedDigestsAtOneAndFourThreads) {
  for (const DigestGolden& golden : kDigestGoldens) {
    for (const std::size_t threads : {1, 4}) {
      SCOPED_TRACE(std::string(golden.name) + " threads=" +
                   std::to_string(threads));
      const std::string bytes =
          rows_csv_of(golden.name, golden.spec, threads,
                      /*with_metrics=*/threads == 4);
      EXPECT_EQ(bytes.size(), golden.bytes);
      EXPECT_EQ(static_cast<std::size_t>(
                    std::count(bytes.begin(), bytes.end(), '\n')),
                golden.rows);
      EXPECT_EQ(fnv1a(bytes), golden.fnv1a);
    }
  }
}

TEST(RowGoldens, TrajectoryBytesMatchWithLanesOffAndOn) {
  // Trajectory replicas step in lane groups of four or more: the pinned
  // bytes must also come out of per-replica stepping, and an 8-replica
  // run of the trajectory case (two lane groups of four) must give the
  // same bytes with lanes on and off, at one and at four threads.
  // File names of their own: ctest runs the other RowGoldens tests, and
  // their temporary files, at the same time.
  const Golden& trajectory = kGoldens[0];
  std::map<std::string, std::string> eight = trajectory.spec;
  eight["replicas"] = "8";
  const std::string on = rows_csv_of("lanes_on_8", eight, 4, false);
  EXPECT_EQ(rows_csv_of("lanes_on_8", eight, 1, false), on);
  const lanes::ScopedDisable off;
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(rows_csv_of("lanes_off", trajectory.spec, threads, false),
              trajectory.rows_csv);
    EXPECT_EQ(rows_csv_of("lanes_off_8", eight, threads, false), on);
    for (const DigestGolden& golden : kDigestGoldens) {
      SCOPED_TRACE(golden.name);
      const std::string name = std::string("lanes_off_") + golden.name;
      EXPECT_EQ(fnv1a(rows_csv_of(name.c_str(), golden.spec, threads, false)),
                golden.fnv1a);
    }
  }
}

}  // namespace
}  // namespace engine
}  // namespace opindyn
