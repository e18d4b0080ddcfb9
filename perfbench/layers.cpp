// perfbench_layers: the traced, in-process half of the repository
// benchmark (driven by run.py).  It replays a workload's requests through
// each module's public entry points and records a span around every call
// it makes -- the spans live in this file only; nothing under src/ is
// instrumented for the benchmark.
//
//   perfbench_layers info
//       one JSON line: build_info_json(), hardware threads, CPU cache
//       sizes and the serve-mode cache limits.
//   perfbench_layers trace --mode=run|serve --requests=<file>
//       --seconds=<s> --threads=<t> --work-dir=<dir> --trace-json=<file>
//       <file> holds one request per line in the spec grammar
//       ("scenario=node n=1024 ...").  `run` repeats the first line the
//       way repeated `opindyn run` invocations would (fresh scheduler and
//       caches per request); `serve` walks the lines as a job stream over
//       process-lifetime scheduler and caches, then drives an in-process
//       JobStreamService with them (closed loop, two jobs outstanding).
//       Writes a Chrome trace-event file in the --trace-json format
//       (args.request groups the spans of one request or job; args.id /
//       args.parent give the call tree) and prints the per-layer metrics
//       as the last stdout line.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "src/core/convergence.h"
#include "src/core/model.h"
#include "src/engine/experiment_spec.h"
#include "src/engine/run_report.h"
#include "src/engine/runner.h"
#include "src/engine/sinks.h"
#include "src/graph/graph_cache.h"
#include "src/service/server.h"
#include "src/spectral/spectrum_cache.h"
#include "src/support/build_info.h"
#include "src/support/cell_scheduler.h"
#include "src/support/cli.h"
#include "src/support/json.h"
#include "src/support/metrics.h"
#include "src/support/rng.h"

namespace {

using namespace opindyn;
using namespace opindyn::engine;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// The highest percentile (at most the 99th) that still has ten samples
/// above it, never below the median (run.py applies the same rule).
double tail(std::vector<double> values) {
  if (values.size() < 21) {
    return median(std::move(values));
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const auto p99 = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(n))) - 1;
  return values[std::min(p99, n - 11)];
}

// ---- spans ----------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = 0;  // 0 = root
  std::int64_t request = 0;
  int lane = 0;
  std::int64_t start_us = 0;
  std::int64_t duration_us = 0;
};

/// In-memory span log, written out once at the end.  Only the main
/// thread records; the open-span stack gives each span its parent.
class Tracer {
 public:
  std::int64_t open() {
    const std::int64_t id = next_id_++;
    stack_.push_back(id);
    return id;
  }
  std::int64_t parent_of_next() const {
    return stack_.empty() ? 0 : stack_.back();
  }
  void close() { stack_.pop_back(); }

  void add(std::string name, std::int64_t id, std::int64_t parent,
           std::int64_t request, int lane, Clock::time_point start,
           Clock::time_point end) {
    spans_.push_back({std::move(name), id, parent, request, lane, us(start),
                      us(end) - us(start)});
  }
  std::int64_t add_leaf(std::string name, std::int64_t parent,
                        std::int64_t request, int lane,
                        Clock::time_point start, Clock::time_point end) {
    const std::int64_t id = next_id_++;
    add(std::move(name), id, parent, request, lane, start, end);
    return id;
  }

  json::Value trace_json() const {
    json::Array events;
    for (const char* lane : {"requests", "serve client"}) {
      json::Object meta;
      meta.emplace_back("name", "thread_name");
      meta.emplace_back("ph", "M");
      meta.emplace_back("pid", 0);
      meta.emplace_back("tid", static_cast<std::int64_t>(events.size()));
      json::Object args;
      args.emplace_back("name", lane);
      meta.emplace_back("args", std::move(args));
      events.push_back(json::Value(std::move(meta)));
    }
    for (const Span& span : spans_) {
      json::Object event;
      event.emplace_back("name", span.name);
      event.emplace_back("cat", span.name.substr(0, span.name.find('.')));
      event.emplace_back("ph", "X");
      event.emplace_back("ts", span.start_us);
      event.emplace_back("dur", span.duration_us);
      event.emplace_back("pid", 0);
      event.emplace_back("tid", span.lane);
      json::Object args;
      args.emplace_back("id", span.id);
      args.emplace_back("parent", span.parent);
      args.emplace_back("request", span.request);
      event.emplace_back("args", std::move(args));
      events.push_back(json::Value(std::move(event)));
    }
    json::Object trace;
    trace.emplace_back("traceEvents", std::move(events));
    trace.emplace_back("displayTimeUnit", "ms");
    return json::Value(std::move(trace));
  }

 private:
  std::int64_t us(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::int64_t next_id_ = 1;
  std::vector<std::int64_t> stack_;
  std::vector<Span> spans_;
};

/// RAII span on the request lane; close() returns its seconds.
class Timed {
 public:
  Timed(Tracer& tracer, std::string name, std::int64_t request)
      : tracer_(tracer),
        name_(std::move(name)),
        request_(request),
        parent_(tracer.parent_of_next()),
        id_(tracer.open()),
        start_(Clock::now()) {}
  ~Timed() { close(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  double close() {
    if (!open_) {
      return seconds_;
    }
    const Clock::time_point end = Clock::now();
    open_ = false;
    seconds_ = seconds_between(start_, end);
    tracer_.close();
    tracer_.add(name_, id_, parent_, request_, 0, start_, end);
    return seconds_;
  }

 private:
  Tracer& tracer_;
  std::string name_;
  std::int64_t request_;
  std::int64_t parent_;
  std::int64_t id_;
  Clock::time_point start_;
  bool open_ = true;
  double seconds_ = 0.0;
};

// ---- requests -------------------------------------------------------

/// "key=value key=value ..." -> spec.
ExperimentSpec parse_request(const std::string& line) {
  std::map<std::string, std::string> kv;
  std::istringstream words(line);
  std::string word;
  while (words >> word) {
    const std::size_t eq = word.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("request word without '=': " + word);
    }
    kv[word.substr(0, eq)] = word.substr(eq + 1);
  }
  ExperimentSpec spec = parse_spec(kv);
  spec.print_table = false;
  return spec;
}

/// Scenarios whose replicas run run_until_converged.
bool converges(const ExperimentSpec& spec) {
  return spec.scenario == "cross_model" ||
         spec.scenario == "thm22_convergence" ||
         spec.scenario == "k_ablation" || spec.scenario == "node" ||
         spec.scenario == "edge";
}

/// Scenarios that consume the lazy-walk spectrum (the B.1 prediction).
bool needs_walk_spectrum(const ExperimentSpec& spec) {
  return spec.scenario == "thm22_convergence" ||
         spec.scenario == "k_ablation" ||
         spec.initial.distribution == "f2_walk";
}

/// The model a cell's replicas run: cross_model honours model= verbatim,
/// the single-model scenarios used here force the NodeModel.
ModelConfig cell_model(const ExperimentSpec& cell) {
  return cell.scenario == "cross_model"
             ? cell.model
             : config_for_kind(cell.model, ModelKind::node);
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  return error ? 0 : static_cast<std::uint64_t>(size);
}

/// Per-layer sums over every traced request.
struct Totals {
  std::int64_t requests = 0;
  std::int64_t errors = 0;
  double rng_draws = 0, rng_s = 0;
  double burst_steps[2] = {0, 0}, burst_s[2] = {0, 0};
  double conv_steps = 0, conv_s = 0, replay_s = 0;
  double graph_build_s = 0;
  std::int64_t graph_builds = 0, graph_hits = 0;
  double eigensolve_s = 0;
  std::int64_t eigensolves = 0, spectral_hits = 0;
  double scheduler_s = 0;
  std::int64_t scheduler_units = 0;
  std::vector<double> engine_s;
  double engine_total_s = 0, child_total_s = 0;
  double sink_rows = 0, sink_s = 0, sink_bytes = 0;
};

/// What a serve process keeps for its lifetime; run mode builds all of
/// it afresh for every request, like a new `opindyn run` process.
struct Infrastructure {
  explicit Infrastructure(std::size_t threads)
      : scheduler(threads),
        probe_scheduler(threads),
        graph_cache(service::ServeOptions{}.graph_cache_limits),
        spectrum_cache(service::ServeOptions{}.spectrum_cache_limits),
        probe_graphs(service::ServeOptions{}.graph_cache_limits),
        probe_spectra(service::ServeOptions{}.spectrum_cache_limits) {}
  CellScheduler scheduler;
  CellScheduler probe_scheduler;
  GraphCache graph_cache;
  SpectrumCache spectrum_cache;
  GraphCache probe_graphs;
  SpectrumCache probe_spectra;
};

class Harness {
 public:
  Harness(Tracer& tracer, std::size_t threads, std::string work_dir)
      : tracer_(tracer), threads_(threads), work_dir_(std::move(work_dir)) {}

  /// One request: the engine call, then each layer's entry points on the
  /// same inputs.
  void request(const std::string& line, std::int64_t id,
               Infrastructure& infra, Totals& totals) {
    ExperimentSpec spec = parse_request(line);
    Timed whole(tracer_, "request", id);

    // engine: run_experiment with the CLI's CSV sinks.
    MetricsRegistry registry;  // only for the engine.steps counter
    infra.scheduler.set_metrics(&registry);
    std::optional<CsvSink> csv;
    std::optional<CsvSink> rows_csv;
    std::vector<RowSink*> sinks;
    std::vector<RowSink*> row_sinks;
    if (!spec.csv_path.empty()) {
      sinks.push_back(&csv.emplace(spec.csv_path));
    }
    if (!spec.rows_csv_path.empty()) {
      row_sinks.push_back(&rows_csv.emplace(spec.rows_csv_path));
    }
    RunContext context;
    context.scheduler = &infra.scheduler;
    context.graph_cache = &infra.graph_cache;
    context.spectrum_cache = &infra.spectrum_cache;
    BatchResult result;
    double engine_s = 0.0;
    {
      Timed span(tracer_, "engine.run_experiment", id);
      result = run_experiment(spec, sinks, row_sinks, context);
      engine_s = span.close();
    }
    infra.scheduler.set_metrics(nullptr);
    const FoldedMetrics folded = registry.fold();
    const auto steps_it = folded.counters.find("engine.steps");
    const double steps = steps_it == folded.counters.end()
                             ? 0.0
                             : static_cast<double>(steps_it->second);
    totals.engine_s.push_back(engine_s);
    totals.engine_total_s += engine_s;
    totals.graph_builds += result.graphs_built;
    totals.graph_hits += result.graph_cache_hits;
    totals.eigensolves += result.spectra_solved;
    totals.spectral_hits += result.spectra_hits;

    // The cells, resolved as the runner resolves them.
    std::vector<ExperimentSpec> cells;
    for (const SweepPoint& point : expand_grid(spec)) {
      ExperimentSpec cell = spec;
      cell.sweeps.clear();
      for (const auto& [key, value] : point.overrides) {
        apply_override(cell, key, value);
      }
      cells.push_back(std::move(cell));
    }

    // graph + spectral: builds and eigensolves on the probe caches.
    double graph_s = 0.0;
    double eigen_s = 0.0;
    std::vector<std::shared_ptr<const Graph>> graphs;
    for (const ExperimentSpec& cell : cells) {
      const std::string key = graph_cache_key(cell.graph);
      graphs.push_back(infra.probe_graphs.get(key, [&] {
        Timed span(tracer_, "graph.build", id);
        Graph graph = build_graph(cell.graph);
        graph_s += span.close();
        return graph;
      }));
      if (needs_walk_spectrum(cell)) {
        const auto record = infra.probe_spectra.get(key, graphs.back());
        if (record->solves() == 0) {
          Timed span(tracer_, "spectral.eigensolve", id);
          record->walk();
          eigen_s += span.close();
        }
      }
    }
    totals.graph_build_s += graph_s;
    totals.eigensolve_s += eigen_s;

    const Graph& graph0 = *graphs.front();
    const std::vector<double> initial0 =
        build_initial(cells.front().initial, graph0);

    // support.rng: the kernels' bounded draws.
    {
      constexpr std::size_t kBlock = 4096;
      constexpr int kBlocks = 1024;
      std::vector<std::uint64_t> buffer(kBlock);
      Rng rng = Rng::fork(cells.front().seed, 0);
      std::uint64_t sink = 0;
      Timed span(tracer_, "support.rng.fill_below", id);
      for (int b = 0; b < kBlocks; ++b) {
        rng.fill_below(static_cast<std::uint64_t>(graph0.node_count()),
                       buffer.data(), kBlock);
        sink += buffer[static_cast<std::size_t>(b) % kBlock];
      }
      totals.rng_s += span.close();
      totals.rng_draws += static_cast<double>(kBlock) * kBlocks;
      draw_sink_ += sink;
    }

    // core.kernel: one fixed-length burst per kernel on this graph.
    const std::int64_t burst = std::clamp<std::int64_t>(
        64 * static_cast<std::int64_t>(graph0.node_count()), 1 << 20,
        1 << 23);
    const ModelKind kinds[2] = {ModelKind::node, ModelKind::edge};
    double node_burst_s = 0.0;
    for (int k = 0; k < 2; ++k) {
      auto process = make_process(
          graph0, config_for_kind(cells.front().model, kinds[k]), initial0);
      Rng rng = Rng::fork(cells.front().seed, 0);
      Timed span(tracer_,
                 k == 0 ? "core.kernel.burst.node" : "core.kernel.burst.edge",
                 id);
      process->step_burst(rng, burst);
      const double burst_s = span.close();
      node_burst_s = k == 0 ? burst_s : node_burst_s;
      totals.burst_s[k] += burst_s;
      totals.burst_steps[k] += static_cast<double>(burst);
    }

    // core.convergence: replica 0 of every converging cell, then the
    // same step count as one bare burst -- the difference is the checks.
    double conv_steps = 0.0;
    double conv_s = 0.0;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const ExperimentSpec& cell = cells[c];
      if (!converges(cell)) {
        continue;
      }
      const ModelConfig config = cell_model(cell);
      const std::vector<double> initial =
          build_initial(cell.initial, *graphs[c]);
      auto process = make_process(*graphs[c], config, initial);
      Rng rng = Rng::fork(cell.seed, 0);
      ConvergenceResult converged;
      {
        Timed span(tracer_, "core.convergence.run_until_converged", id);
        converged = run_until_converged(*process, rng, cell.convergence);
        conv_s += span.close();
      }
      conv_steps += static_cast<double>(converged.steps);
      auto replay = make_process(*graphs[c], config, initial);
      Rng replay_rng = Rng::fork(cell.seed, 0);
      Timed span(tracer_, "core.kernel.burst_replay", id);
      replay->step_burst(replay_rng, converged.steps);
      totals.replay_s += span.close();
    }
    totals.conv_steps += conv_steps;
    totals.conv_s += conv_s;

    // support.scheduler: as many empty units as the request schedules.
    {
      std::int64_t units = 0;
      for (const ExperimentSpec& cell : cells) {
        units += cell.replicas;
      }
      Timed span(tracer_, "support.scheduler.run", id);
      infra.probe_scheduler.run(units, 1, 1,
                                [](std::int64_t, Rng&, std::span<double>) {});
      totals.scheduler_s += span.close();
      totals.scheduler_units += units;
    }

    // engine sinks: the request's rows through fresh CSV sinks.
    double sink_s = 0.0;
    {
      const std::string aggregate = work_dir_ + "/sink-probe.csv";
      const std::string replica = work_dir_ + "/sink-probe-rows.csv";
      Timed span(tracer_, "engine.sink.write", id);
      CsvSink out(aggregate);
      out.begin(result.columns);
      for (const auto& row : result.rows) {
        out.row(row);
      }
      out.finish();
      if (!result.replica_columns.empty()) {
        CsvSink rows_out(replica);
        rows_out.begin(result.replica_columns);
        for (const auto& row : result.replica_rows) {
          rows_out.row(row);
        }
        rows_out.finish();
      }
      sink_s = span.close();
      totals.sink_bytes += static_cast<double>(
          file_bytes(aggregate) +
          (result.replica_columns.empty() ? 0 : file_bytes(replica)));
    }
    totals.sink_s += sink_s;
    totals.sink_rows +=
        static_cast<double>(result.rows.size() + result.replica_rows.size());

    // Child-layer estimate of the engine call: graph builds, eigensolves,
    // the simulation spread over the pool, and the sink writes.
    const double sim_sps = conv_s > 0.0
                               ? conv_steps / conv_s
                               : static_cast<double>(burst) / node_burst_s;
    totals.child_total_s += graph_s + eigen_s + sink_s +
                            steps / (sim_sps * static_cast<double>(threads_));
    ++totals.requests;
  }

  std::uint64_t draw_sink() const { return draw_sink_; }

 private:
  Tracer& tracer_;
  std::size_t threads_;
  std::string work_dir_;
  /// Folds the rng probe's draws into the printed summary, so the
  /// compiler cannot drop them as dead stores.
  std::uint64_t draw_sink_ = 0;
};

// ---- in-process serve session ---------------------------------------

/// Input side of serve_stream: getline blocks until the client pushes a
/// line or closes the stream.
class LineInput : public std::streambuf {
 public:
  void push(const std::string& line) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      lines_.push_back(line + "\n");
    }
    ready_.notify_one();
  }
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_one();
  }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) {
      return traits_type::to_int_type(*gptr());
    }
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return !lines_.empty() || closed_; });
    if (lines_.empty()) {
      return traits_type::eof();
    }
    current_ = std::move(lines_.front());
    lines_.pop_front();
    setg(current_.data(), current_.data(), current_.data() + current_.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::string> lines_;
  bool closed_ = false;
  std::string current_;
};

/// Output side: every completed record line goes to the client queue.
/// serve_stream writes under its own lock, so calls never interleave.
class RecordOutput : public std::streambuf {
 public:
  std::optional<std::string> pop_until(Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!ready_.wait_until(lock, deadline,
                           [this] { return !records_.empty(); })) {
      return std::nullopt;
    }
    std::string record = std::move(records_.front());
    records_.pop_front();
    return record;
  }

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    const char c = traits_type::to_char_type(ch);
    if (c != '\n') {
      pending_.push_back(c);
      return ch;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      records_.push_back(std::move(pending_));
    }
    pending_.clear();
    ready_.notify_one();
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) {
      overflow(traits_type::to_int_type(s[i]));
    }
    return n;
  }

 private:
  std::string pending_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::string> records_;
};

struct ServeStats {
  std::vector<double> latency_ms;
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  std::int64_t jobs = 0;
  std::int64_t not_ok = 0;
};

/// Closed loop with two jobs outstanding against an in-process service
/// (serve --threads=<t> --job-workers=2), for `seconds`.
ServeStats drive_service(const std::vector<std::string>& lines,
                         double seconds, std::size_t threads,
                         Tracer& tracer, std::int64_t first_request) {
  service::ServeOptions options;
  options.threads = threads;
  options.job_workers = 2;
  service::JobStreamService server(options);
  LineInput input_buffer;
  RecordOutput output_buffer;
  std::istream in(&input_buffer);
  std::ostream out(&output_buffer);
  std::exception_ptr session_error;
  std::thread session([&] {
    try {
      server.serve_stream(in, out);
    } catch (...) {
      session_error = std::current_exception();
    }
  });

  ServeStats stats;
  std::exception_ptr client_error;
  try {
    const Clock::time_point give_up =
        Clock::now() + std::chrono::seconds(60);
    if (!output_buffer.pop_until(give_up)) {
      throw std::runtime_error("no ready record from the service");
    }
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    std::map<std::int64_t, Clock::time_point> sent;
    std::int64_t next = 0;
    const auto send = [&] {
      const std::string& line =
          lines[static_cast<std::size_t>(next) % lines.size()];
      ++next;
      sent[next] = Clock::now();
      input_buffer.push(line);
    };
    while (static_cast<std::int64_t>(sent.size()) < 2) {
      send();
    }
    while (!sent.empty()) {
      const std::optional<std::string> line = output_buffer.pop_until(
          Clock::now() + std::chrono::seconds(60));
      if (!line) {
        throw std::runtime_error("service stopped answering");
      }
      const Clock::time_point received = Clock::now();
      const json::Value record = json::parse(*line);
      const json::Value* job = record.find("job");
      if (job == nullptr) {
        continue;
      }
      const auto it = sent.find(job->as_int());
      if (it == sent.end()) {
        continue;
      }
      const json::Value* status = record.find("status");
      const json::Value* wall = record.find("wall_ms");
      const bool ok = status != nullptr && status->as_string() == "ok";
      const double latency_ms =
          1e3 * seconds_between(it->second, received);
      const double run_ms =
          wall != nullptr ? std::min(wall->as_double(), latency_ms) : 0.0;
      ++stats.jobs;
      stats.not_ok += ok ? 0 : 1;
      stats.latency_ms.push_back(latency_ms);
      stats.run_ms.push_back(run_ms);
      stats.queue_ms.push_back(latency_ms - run_ms);
      const std::int64_t request = first_request + it->first;
      const Clock::time_point run_start =
          received - std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(run_ms));
      const std::int64_t parent = tracer.add_leaf(
          "service.job", 0, request, 1, it->second, received);
      tracer.add_leaf("service.queue", parent, request, 1, it->second,
                      run_start);
      tracer.add_leaf("service.run", parent, request, 1, run_start,
                      received);
      sent.erase(it);
      if (Clock::now() < deadline) {
        send();
      }
    }
  } catch (...) {
    client_error = std::current_exception();
    server.request_shutdown("client error");
  }
  input_buffer.close();
  session.join();
  if (client_error) {
    std::rethrow_exception(client_error);
  }
  if (session_error) {
    std::rethrow_exception(session_error);
  }
  return stats;
}

// ---- commands -------------------------------------------------------

int cmd_info() {
  json::Object caches;
  caches.emplace_back("l1d_bytes", sysconf(_SC_LEVEL1_DCACHE_SIZE));
  caches.emplace_back("l2_bytes", sysconf(_SC_LEVEL2_CACHE_SIZE));
  caches.emplace_back("l3_bytes", sysconf(_SC_LEVEL3_CACHE_SIZE));
  const service::ServeOptions serve;
  json::Object limits;
  limits.emplace_back("graph_entries", serve.graph_cache_limits.max_entries);
  limits.emplace_back("graph_bytes", serve.graph_cache_limits.max_bytes);
  limits.emplace_back("spectrum_entries",
                      serve.spectrum_cache_limits.max_entries);
  limits.emplace_back("spectrum_bytes",
                      serve.spectrum_cache_limits.max_bytes);
  json::Object info;
  info.emplace_back("build", build_info_json());
  info.emplace_back("hardware_threads",
                    static_cast<std::int64_t>(
                        std::thread::hardware_concurrency()));
  info.emplace_back("cpu_caches", std::move(caches));
  info.emplace_back("serve_cache_limits", std::move(limits));
  std::cout << json::Value(std::move(info)).dump() << "\n";
  return 0;
}

int cmd_trace(const CliArgs& args) {
  const std::string mode = args.get("mode", std::string("run"));
  const double seconds = args.get("seconds", 10.0);
  const auto threads =
      static_cast<std::size_t>(args.get("threads", std::int64_t{2}));
  const std::string work_dir = args.get("work-dir", std::string("."));
  const std::string trace_path = args.get("trace-json", std::string{});
  std::vector<std::string> lines;
  {
    std::ifstream in(args.get("requests", std::string{}));
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) {
        lines.push_back(line);
      }
    }
  }
  if (lines.empty() || (mode != "run" && mode != "serve")) {
    throw std::runtime_error(
        "trace needs --mode=run|serve and a non-empty --requests file");
  }
  register_builtin_scenarios();

  Tracer tracer;
  Harness harness(tracer, threads, work_dir);
  Totals totals;
  std::optional<Infrastructure> shared;
  if (mode == "serve") {
    shared.emplace(threads);
  }
  // Serve mode gives the layer replay 40% of the budget and the
  // in-process service session the rest.
  const double replay_seconds = mode == "serve" ? 0.4 * seconds : seconds;
  const Clock::time_point start = Clock::now();
  std::int64_t id = 0;
  do {
    const std::string& line =
        lines[static_cast<std::size_t>(id) % lines.size()];
    ++id;
    std::optional<Infrastructure> fresh;
    Infrastructure& infra = shared ? *shared : fresh.emplace(threads);
    try {
      harness.request(line, id, infra, totals);
    } catch (const std::exception& error) {
      ++totals.errors;
      ++totals.requests;
      std::cerr << "perfbench_layers: request " << id << ": " << error.what()
                << "\n";
    }
  } while (seconds_between(start, Clock::now()) < replay_seconds);

  ServeStats serve;
  if (mode == "serve") {
    serve = drive_service(lines, seconds - seconds_between(start, Clock::now()),
                          threads, tracer, id);
  }

  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto per_request = [&totals](double value) {
    return totals.requests > 0
               ? value / static_cast<double>(totals.requests)
               : 0.0;
  };
  json::Object metrics;
  const auto put = [&metrics](const char* name, double value,
                              const char* unit) {
    json::Object entry;
    entry.emplace_back("value", value);
    entry.emplace_back("unit", unit);
    metrics.emplace_back(name, std::move(entry));
  };
  put("support.rng.draws_per_s", ratio(totals.rng_draws, totals.rng_s),
      "1/s");
  put("core.kernel.burst_sps.node",
      ratio(totals.burst_steps[0], totals.burst_s[0]), "1/s");
  put("core.kernel.burst_sps.edge",
      ratio(totals.burst_steps[1], totals.burst_s[1]), "1/s");
  put("core.convergence.sps", ratio(totals.conv_steps, totals.conv_s), "1/s");
  put("core.convergence.check_share",
      totals.conv_s > 0.0 ? 1.0 - totals.replay_s / totals.conv_s : 0.0,
      "ratio");
  put("graph.build_s", per_request(totals.graph_build_s), "s");
  put("graph.cache_builds",
      per_request(static_cast<double>(totals.graph_builds)), "count");
  put("graph.cache_hits", per_request(static_cast<double>(totals.graph_hits)),
      "count");
  put("spectral.eigensolve_s", per_request(totals.eigensolve_s), "s");
  put("spectral.eigensolves",
      per_request(static_cast<double>(totals.eigensolves)), "count");
  put("spectral.cache_hits",
      per_request(static_cast<double>(totals.spectral_hits)), "count");
  put("spectral.serial_share",
      ratio(totals.eigensolve_s, totals.engine_total_s), "ratio");
  put("support.scheduler.unit_overhead_us",
      1e6 * ratio(totals.scheduler_s,
                  static_cast<double>(totals.scheduler_units)),
      "us");
  put("support.scheduler.units",
      per_request(static_cast<double>(totals.scheduler_units)), "count");
  put("engine.run_s", median(totals.engine_s), "s");
  put("engine.overhead_share",
      totals.engine_total_s > 0.0
          ? 1.0 - totals.child_total_s / totals.engine_total_s
          : 0.0,
      "ratio");
  put("engine.sink_rows_per_s", ratio(totals.sink_rows, totals.sink_s), "1/s");
  put("engine.sink_bytes", per_request(totals.sink_bytes), "B");
  put("service.queue_ms_p50", median(serve.queue_ms), "ms");
  put("service.queue_ms_p99", tail(serve.queue_ms), "ms");
  put("service.run_ms_p50", median(serve.run_ms), "ms");

  if (!trace_path.empty()) {
    write_json_file(trace_path, tracer.trace_json());
  }
  json::Object summary;
  summary.emplace_back("requests", totals.requests + serve.jobs);
  summary.emplace_back("failed", totals.errors + serve.not_ok);
  summary.emplace_back(
      "traced_wall_s",
      mode == "serve" ? median(serve.latency_ms) / 1e3
                      : median(totals.engine_s));
  summary.emplace_back("serve_jobs", serve.jobs);
  summary.emplace_back("draw_checksum",
                       static_cast<std::int64_t>(harness.draw_sink() & 0xffff));
  summary.emplace_back("metrics", std::move(metrics));
  std::cout << json::Value(std::move(summary)).dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string command =
      args.positional().empty() ? "" : args.positional().front();
  try {
    if (command == "info") {
      return cmd_info();
    }
    if (command == "trace") {
      return cmd_trace(args);
    }
    std::cerr << "usage: perfbench_layers info | trace --mode=run|serve "
                 "--requests=<file> --seconds=<s> --threads=<t> "
                 "--work-dir=<dir> --trace-json=<file>\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "perfbench_layers: " << error.what() << "\n";
    return 1;
  }
}
