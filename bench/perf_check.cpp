// perf_check -- the CI perf regression gate.
//
// Compares a freshly measured perf_baseline JSON against the checked-in
// reference (BENCH_8.json) and fails when any workload's throughput
// dropped by more than the tolerance:
//
//   perf_check --baseline BENCH_8.json --current fresh.json
//       [--max-drop 0.15] [--metric burst_sps]
//
// Workloads are matched by identity (model, graph, n, k, track_extrema,
// reorder) -- a
// workload present in the baseline but missing from the current run is
// itself a failure, so the gate cannot be silenced by deleting rows.
// Every workload is printed with its ratio.
//
// Exit codes distinguish the failure modes so a CI gate's red X is
// diagnosable from the status alone:
//   0  every workload within tolerance
//   1  regression detected (too slow, or a workload went missing)
//   2  usage error (bad flags)
//   3  input error: a baseline/current file is missing, unreadable or
//      unparseable -- a broken *gate*, not a slow *build*
//
//   perf_check --self-test
//
// runs the comparator against embedded synthetic documents (pass,
// regression, missing-workload, unreadable-input) so CTest exercises
// the gate logic -- including the exit-code classification -- without
// timing anything.
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/support/json.h"

namespace {

using opindyn::json::Value;

struct WorkloadKey {
  std::string model;
  // Rows before BENCH_7 carried no graph/reorder fields; the defaults
  // make old documents comparable against new ones.
  std::string graph = "random_regular";
  std::int64_t n = 0;
  std::int64_t k = 1;
  bool track_extrema = false;
  bool reorder = false;

  std::string label() const {
    std::ostringstream out;
    out << model << " " << graph << " n=" << n << " k=" << k
        << (track_extrema ? " extrema" : "") << (reorder ? " reorder" : "");
    return out.str();
  }
  bool operator==(const WorkloadKey& other) const {
    return model == other.model && graph == other.graph && n == other.n &&
           k == other.k && track_extrema == other.track_extrema &&
           reorder == other.reorder;
  }
};

WorkloadKey key_of(const Value& row) {
  WorkloadKey key;
  key.model = row.find("model")->as_string();
  if (const Value* graph = row.find("graph")) {
    key.graph = graph->as_string();
  }
  key.n = row.find("n")->as_int();
  if (const Value* k = row.find("k")) {
    key.k = k->as_int();
  }
  if (const Value* extrema = row.find("track_extrema")) {
    key.track_extrema = extrema->as_bool();
  }
  if (const Value* reorder = row.find("reorder")) {
    key.reorder = reorder->as_bool();
  }
  return key;
}

const Value& workloads_of(const Value& doc, const std::string& which) {
  const Value* workloads = doc.find("workloads");
  if (workloads == nullptr || !workloads->is_array()) {
    throw std::runtime_error(which +
                             " document has no \"workloads\" array");
  }
  return *workloads;
}

/// Compares the two parsed documents; prints one line per baseline
/// workload to `out`.  Returns the number of failures (regressions
/// beyond max_drop + workloads missing from `current`).
int compare(const Value& baseline, const Value& current,
            const std::string& metric, double max_drop,
            std::ostream& out) {
  int failures = 0;
  for (const Value& base_row : workloads_of(baseline, "baseline")
                                   .as_array()) {
    const WorkloadKey key = key_of(base_row);
    const Value* base_metric = base_row.find(metric);
    if (base_metric == nullptr) {
      out << "SKIP  " << key.label() << ": baseline row has no \""
          << metric << "\"\n";
      continue;
    }
    const Value* match = nullptr;
    for (const Value& cur_row : workloads_of(current, "current")
                                    .as_array()) {
      if (key_of(cur_row) == key) {
        match = &cur_row;
        break;
      }
    }
    if (match == nullptr || match->find(metric) == nullptr) {
      out << "FAIL  " << key.label()
          << ": missing from the current run\n";
      ++failures;
      continue;
    }
    const double base = base_metric->as_double();
    const double cur = match->find(metric)->as_double();
    const double ratio = base > 0.0 ? cur / base : 0.0;
    const bool regressed = ratio < 1.0 - max_drop;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%s  %-24s %s: %.4g -> %.4g (%+.1f%%)\n",
                  regressed ? "FAIL" : "ok  ", key.label().c_str(),
                  metric.c_str(), base, cur, (ratio - 1.0) * 100.0);
    out << line;
    if (regressed) {
      ++failures;
    }
  }
  return failures;
}

/// Loads + compares + reports; returns the process exit code (0 pass,
/// 1 regression, 3 input error).  Out of line from main so the
/// self-test can assert the exit-code classification directly.
int run_gate(const std::string& baseline_path,
             const std::string& current_path, const std::string& metric,
             double max_drop, std::ostream& out, std::ostream& err) {
  Value baseline;
  Value current;
  // Input problems (missing file, bad JSON, wrong schema) are exit 3:
  // the gate itself is broken and no statement about performance was
  // made.  Naming the offending file keeps the red X diagnosable.
  try {
    baseline = opindyn::json::parse_file(baseline_path);
    workloads_of(baseline, "baseline");
  } catch (const std::exception& error) {
    err << "perf_check: baseline unusable (" << baseline_path
        << "): " << error.what() << "\n";
    return 3;
  }
  try {
    current = opindyn::json::parse_file(current_path);
    workloads_of(current, "current");
  } catch (const std::exception& error) {
    err << "perf_check: current run unusable (" << current_path
        << "): " << error.what() << "\n";
    return 3;
  }
  const int failures = compare(baseline, current, metric, max_drop, out);
  if (failures > 0) {
    err << "perf_check: " << failures << " workload(s) regressed "
        << "more than " << max_drop * 100.0 << "% on " << metric << "\n";
    return 1;
  }
  out << "perf_check: all workloads within " << max_drop * 100.0
      << "% of baseline\n";
  return 0;
}

int self_test() {
  const char* kBaseline = R"({"workloads": [
    {"model": "node", "n": 1024, "k": 1, "track_extrema": false,
     "burst_sps": 100.0},
    {"model": "node", "n": 1024, "k": 4, "track_extrema": false,
     "burst_sps": 50.0},
    {"model": "edge", "n": 1024, "k": 1, "track_extrema": true,
     "burst_sps": 10.0},
    {"model": "node", "graph": "torus", "n": 2048, "k": 1,
     "burst_sps": 70.0}
  ]})";
  // k=1 within tolerance (-10%), k=4 regressed (-40%), extrema missing,
  // torus row present only under a different graph family (so the
  // graph field is part of the identity and the row counts missing).
  const char* kCurrent = R"({"workloads": [
    {"model": "node", "n": 1024, "k": 1, "track_extrema": false,
     "burst_sps": 90.0},
    {"model": "node", "n": 1024, "k": 4, "track_extrema": false,
     "burst_sps": 30.0},
    {"model": "node", "graph": "pref_attach", "n": 2048, "k": 1,
     "burst_sps": 70.0}
  ]})";
  const Value baseline = opindyn::json::parse(kBaseline);
  const Value current = opindyn::json::parse(kCurrent);

  std::ostringstream sink;
  int rc = 0;
  const auto expect = [&rc](bool ok, const char* what) {
    if (!ok) {
      std::cerr << "self-test FAILED: " << what << "\n";
      rc = 1;
    }
  };
  expect(compare(baseline, baseline, "burst_sps", 0.15, sink) == 0,
         "identity comparison must pass");
  expect(compare(baseline, current, "burst_sps", 0.15, sink) == 3,
         "one regression + two missing workloads must count 3 failures");
  expect(compare(baseline, current, "burst_sps", 0.5, sink) == 2,
         "with 50% tolerance only the missing workloads must fail");
  // The exit-code classification: input errors are 3 (broken gate),
  // never 1 (regression) -- a CI job must be able to tell the two
  // apart from the status alone.
  std::ostringstream err;
  expect(run_gate("/nonexistent/baseline.json", "/nonexistent/cur.json",
                  "burst_sps", 0.15, sink, err) == 3,
         "a missing baseline must exit 3, not 1");
  expect(err.str().find("baseline unusable") != std::string::npos,
         "the input error must name the unusable side");
  if (rc == 0) {
    std::cout << "perf_check self-test passed\n";
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  std::string metric = "burst_sps";
  double max_drop = 0.15;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--current" && i + 1 < argc) {
      current_path = argv[++i];
    } else if (arg == "--metric" && i + 1 < argc) {
      metric = argv[++i];
    } else if (arg == "--max-drop" && i + 1 < argc) {
      try {
        max_drop = std::stod(argv[++i]);
      } catch (const std::exception&) {
        std::cerr << "perf_check: --max-drop needs a number, got '"
                  << argv[i] << "'\n";
        return 2;
      }
    } else if (arg == "--self-test") {
      return self_test();
    } else {
      std::cerr << "usage: perf_check --baseline FILE --current FILE "
                   "[--metric NAME] [--max-drop FRAC] | --self-test\n";
      return 2;
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    std::cerr << "perf_check: --baseline and --current are required "
                 "(or --self-test)\n";
    return 2;
  }
  return run_gate(baseline_path, current_path, metric, max_drop, std::cout,
                  std::cerr);
}
