// Output bytes never depend on the lane kernel: every checked-in
// examples/specs/*.spec gives the same aggregate CSV, rows CSV and
// histogram CSV with lanes switched off (lanes::ScopedDisable: one
// replica per unit, each process stepped alone) as with lanes on, at one
// and at four threads.  Lanes change only the unit count and the
// engine.lane_steps counter.  A spec whose lanes-on run takes no lane
// step (no cell has a covered shape and 4 or more replicas, or the CPU
// has no AVX-512F) ran the lanes-off code path already, so its other
// three runs are skipped.  Fixed-horizon runs go through the same group
// loop as converging ones, so a fixed-horizon spec skips only for its
// shape (corE2_cheeger and lemma41_martingale_drift take lanes); on an
// AVX-512F CPU the 24 skips are the lazy, k > 1-only, irregular-only
// and lane-free (duality, qchain, propB1_drop, degroot, friedkin_johnsen)
// specs.  Labelled `specs` with the CLI spec runs: the whole set takes
// about a minute of CPU.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/lane_kernel.h"
#include "src/engine/experiment_spec.h"
#include "src/engine/runner.h"
#include "src/support/metrics.h"

#ifndef OPINDYN_SPEC_DIR
#error "OPINDYN_SPEC_DIR must name the examples/specs directory"
#endif

namespace opindyn {
namespace engine {
namespace {

std::vector<std::string> spec_names() {
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(OPINDYN_SPEC_DIR)) {
    if (entry.path().extension() == ".spec") {
      names.push_back(entry.path().stem().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string take_file(const std::string& path) {
  if (path.empty()) {
    return {};
  }
  std::ostringstream out;
  {
    std::ifstream in(path, std::ios::binary);
    out << in.rdbuf();
  }
  std::remove(path.c_str());
  return out.str();
}

struct SpecBytes {
  std::string csv;
  std::string rows;
  std::string hist;
  bool operator==(const SpecBytes&) const = default;
};

/// Runs the spec with its file outputs moved to the test's temporary
/// directory (the aggregate CSV always written), its run report and
/// trace dropped (they carry timings) and no table; `lane_steps`
/// receives the engine.lane_steps counter.
SpecBytes run_spec(const std::string& name, std::size_t threads, bool lanes,
                   std::int64_t* lane_steps = nullptr) {
  ExperimentSpec spec =
      parse_spec_file(std::string(OPINDYN_SPEC_DIR) + "/" + name + ".spec");
  spec.threads = threads;
  spec.print_table = false;
  spec.metrics_json_path.clear();
  spec.trace_json_path.clear();
  const std::string stem = ::testing::TempDir() + "opindyn_lane_bytes_" +
                           name + "_" + std::to_string(threads) +
                           (lanes ? "_on" : "_off");
  spec.csv_path = stem + ".csv";
  if (!spec.rows_csv_path.empty()) {
    spec.rows_csv_path = stem + "_rows.csv";
  }
  if (!spec.hist_csv_path.empty()) {
    spec.hist_csv_path = stem + "_hist.csv";
  }
  MetricsRegistry registry;
  {
    std::optional<lanes::ScopedDisable> off;
    if (!lanes) {
      off.emplace();
    }
    RunContext context;
    context.metrics = &registry;
    run_experiment_with_default_sinks(spec, context);
  }
  if (lane_steps != nullptr) {
    const auto counters = registry.fold().counters;
    const auto it = counters.find("engine.lane_steps");
    *lane_steps = it == counters.end() ? 0 : it->second;
  }
  return {take_file(spec.csv_path), take_file(spec.rows_csv_path),
          take_file(spec.hist_csv_path)};
}

class LaneBytes : public ::testing::TestWithParam<std::string> {};

TEST_P(LaneBytes, SpecOutputsMatchWithLanesOffAndOn) {
  const std::string& name = GetParam();
  std::int64_t lane_steps = 0;
  const SpecBytes on = run_spec(name, 4, true, &lane_steps);
  EXPECT_FALSE(on.csv.empty());
  if (lane_steps == 0) {
    GTEST_SKIP() << name << " takes no lane step (lane kernel: "
                 << lanes::kernel_name() << ")";
  }
  const SpecBytes off = run_spec(name, 4, false);
  EXPECT_EQ(on.csv, off.csv);
  EXPECT_EQ(on.rows, off.rows);
  EXPECT_EQ(on.hist, off.hist);
  const SpecBytes on_serial = run_spec(name, 1, true);
  const SpecBytes off_serial = run_spec(name, 1, false);
  EXPECT_TRUE(on_serial == on) << "bytes differ between 1 and 4 threads";
  EXPECT_TRUE(off_serial == on) << "bytes differ between 1 and 4 threads";
}

INSTANTIATE_TEST_SUITE_P(
    Specs, LaneBytes, ::testing::ValuesIn(spec_names()),
    [](const ::testing::TestParamInfo<std::string>& spec) {
      std::string id = spec.param;
      for (char& c : id) {
        c = std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
      }
      return id;
    });

}  // namespace
}  // namespace engine
}  // namespace opindyn
