#include "src/engine/run_report.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>

#include "src/support/build_info.h"

namespace opindyn {
namespace engine {
namespace {

/// The spec echo: to_key_values round-trips the spec exactly, so the
/// report carries full provenance as a key -> string object in schema
/// key order.
json::Value spec_echo(const ExperimentSpec& spec) {
  json::Object echo;
  std::istringstream lines(to_key_values(spec));
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      continue;
    }
    echo.emplace_back(line.substr(0, eq), line.substr(eq + 1));
  }
  return json::Value(std::move(echo));
}

json::Value counter_object(
    const std::map<std::string, std::int64_t>& counters) {
  json::Object out;
  for (const auto& [name, value] : counters) {
    out.emplace_back(name, value);
  }
  return json::Value(std::move(out));
}

json::Value timing_object(const std::map<std::string, double>& timings) {
  json::Object out;
  for (const auto& [name, ms] : timings) {
    out.emplace_back(name, ms);
  }
  return json::Value(std::move(out));
}

}  // namespace

json::Value build_run_report(const ExperimentSpec& spec,
                             const BatchResult& result,
                             const FoldedMetrics& folded,
                             const RunReportOptions& options) {
  json::Object report;
  report.emplace_back("schema", "opindyn-run-report-v1");
  report.emplace_back("scenario", spec.scenario);
  report.emplace_back("seed", spec.seed);
  report.emplace_back("threads", spec.threads);
  // Early in the report so a partial run's manifest is unmistakable:
  // true means the batch was cancelled (SIGINT, deadline) and the rows
  // below cover only the flushed prefix of cells.
  report.emplace_back("interrupted", result.interrupted);
  if (result.interrupted) {
    report.emplace_back("interrupt_reason", result.interrupt_reason);
  }
  report.emplace_back("spec", spec_echo(spec));
  report.emplace_back("build", build_info_json());
  report.emplace_back("counters", counter_object(folded.counters));

  // Per-cell table: the grid-order summaries joined with the labeled
  // counters the scheduler attributed to "cell/<index>".  Counter cells
  // are deterministic; the busy-time column is wall clock and follows
  // include_timings.
  json::Array cells;
  for (const CellSummary& cell : result.cells) {
    json::Object row;
    row.emplace_back("label", cell.label);
    row.emplace_back("graph", cell.graph);
    row.emplace_back("n", cell.n);
    row.emplace_back("replicas", cell.replicas);
    json::Object overrides;
    for (const auto& [key, value] : cell.overrides) {
      overrides.emplace_back(key, value);
    }
    row.emplace_back("overrides", std::move(overrides));
    const auto labeled = folded.labeled.find(cell.label);
    row.emplace_back("counters",
                     labeled != folded.labeled.end()
                         ? counter_object(labeled->second)
                         : json::Value(json::Object{}));
    if (options.include_timings) {
      const auto busy = folded.label_busy_us.find(cell.label);
      row.emplace_back("busy_ms",
                       busy != folded.label_busy_us.end()
                           ? static_cast<double>(busy->second) / 1000.0
                           : 0.0);
    }
    cells.push_back(json::Value(std::move(row)));
  }
  report.emplace_back("cells", std::move(cells));

  json::Object result_block;
  result_block.emplace_back("work_items", result.work_items);
  result_block.emplace_back("rows", result.rows.size());
  result_block.emplace_back("replica_rows", result.replica_rows.size());
  result_block.emplace_back("row_exact_phis", result.row_exact_phis);
  result_block.emplace_back("graphs_built", result.graphs_built);
  result_block.emplace_back("graph_cache_hits", result.graph_cache_hits);
  result_block.emplace_back("spectra_solved", result.spectra_solved);
  result_block.emplace_back("spectra_vector_solves",
                            result.spectra_vector_solves);
  result_block.emplace_back("spectra_hits", result.spectra_hits);
  result_block.emplace_back("spectra_late_solves", result.spectra_late_solves);
  report.emplace_back("result", std::move(result_block));

  // Cache statistics (per-batch deltas plus the end-of-batch resident
  // footprint), one sub-object per cache so LRU behaviour -- invisible
  // in the counters above -- is observable per job and per sweep.
  json::Object graph_cache;
  graph_cache.emplace_back("hits", result.graph_cache_hits);
  graph_cache.emplace_back("misses", result.graphs_built);
  graph_cache.emplace_back("evictions", result.graph_cache_evictions);
  graph_cache.emplace_back("resident_bytes",
                           result.graph_cache_resident_bytes);
  json::Object spectrum_cache;
  spectrum_cache.emplace_back("record_hits", result.spectrum_record_hits);
  spectrum_cache.emplace_back("record_misses",
                              result.spectrum_record_misses);
  spectrum_cache.emplace_back("eigensolves", result.spectra_solved);
  spectrum_cache.emplace_back("vector_solves", result.spectra_vector_solves);
  spectrum_cache.emplace_back("spectrum_hits", result.spectra_hits);
  spectrum_cache.emplace_back("late_solves", result.spectra_late_solves);
  spectrum_cache.emplace_back("evictions",
                              result.spectrum_cache_evictions);
  spectrum_cache.emplace_back("resident_bytes",
                              result.spectrum_cache_resident_bytes);
  json::Object caches;
  caches.emplace_back("graph", std::move(graph_cache));
  caches.emplace_back("spectrum", std::move(spectrum_cache));
  report.emplace_back("caches", std::move(caches));

  if (options.include_timings) {
    report.emplace_back("timings_ms", timing_object(folded.timings_ms));
    report.emplace_back("gauges", counter_object(folded.gauges));
    json::Array workers;
    for (const WorkerReport& worker : folded.workers) {
      json::Object row;
      row.emplace_back("worker", worker.worker);
      row.emplace_back("spans", worker.spans);
      row.emplace_back("busy_ms",
                       static_cast<double>(worker.busy_us) / 1000.0);
      workers.push_back(json::Value(std::move(row)));
    }
    report.emplace_back("workers", std::move(workers));

    const auto steps = folded.counters.find("engine.steps");
    const std::int64_t total_steps =
        steps != folded.counters.end() ? steps->second : 0;
    json::Object perf;
    perf.emplace_back("wall_ms", options.wall_ms);
    perf.emplace_back("steps", total_steps);
    perf.emplace_back("steps_per_sec",
                      options.wall_ms > 0.0
                          ? static_cast<double>(total_steps) /
                                (options.wall_ms / 1000.0)
                          : 0.0);
    perf.emplace_back("peak_rss_bytes", peak_rss_bytes());
    report.emplace_back("perf", std::move(perf));
  }
  return json::Value(std::move(report));
}

json::Value build_trace_json(const FoldedMetrics& folded) {
  json::Array events;
  // Metadata first: name each worker lane so Perfetto shows "worker 0"
  // instead of bare tids.  Worker indices are buffer creation order --
  // worker 0 is the thread that drove the batch.
  for (const WorkerReport& worker : folded.workers) {
    json::Object meta;
    meta.emplace_back("name", "thread_name");
    meta.emplace_back("ph", "M");
    meta.emplace_back("pid", 0);
    meta.emplace_back("tid", worker.worker);
    json::Object args;
    args.emplace_back("name",
                      "worker " + std::to_string(worker.worker));
    meta.emplace_back("args", std::move(args));
    events.push_back(json::Value(std::move(meta)));
  }
  for (const TraceSpan& span : folded.spans) {
    json::Object event;
    event.emplace_back("name", span.name);
    event.emplace_back("cat", span.category);
    event.emplace_back("ph", "X");
    event.emplace_back("ts", span.start_us);
    event.emplace_back("dur", span.duration_us);
    event.emplace_back("pid", 0);
    event.emplace_back("tid", span.worker);
    if (span.replica >= 0) {
      json::Object args;
      args.emplace_back("replica", span.replica);
      event.emplace_back("args", std::move(args));
    }
    events.push_back(json::Value(std::move(event)));
  }
  json::Object trace;
  trace.emplace_back("traceEvents", std::move(events));
  trace.emplace_back("displayTimeUnit", "ms");
  return json::Value(std::move(trace));
}

void write_json_file(const std::string& path, const json::Value& value) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
  out << value.dump(2) << "\n";
  out.flush();
  if (!out) {
    throw std::runtime_error("failed writing '" + path + "'");
  }
}

void probe_output_path(const std::string& path) {
  std::ofstream probe(path, std::ios::app);
  if (!probe) {
    throw std::runtime_error("cannot open '" + path +
                             "' for writing (bad directory?)");
  }
}

std::int64_t peak_rss_bytes() {
  // VmHWM ("high water mark") is the peak resident set in kB.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::int64_t kb = 0;
      if (fields >> kb) {
        return kb * 1024;
      }
    }
  }
  // Portable fallback: ru_maxrss is kilobytes on Linux.
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;
  }
  return 0;
}

}  // namespace engine
}  // namespace opindyn
