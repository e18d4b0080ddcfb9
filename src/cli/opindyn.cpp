// The one CLI in front of the scenario engine:
//
//   opindyn list
//   opindyn describe --scenario=node_vs_edge
//   opindyn run --scenario=node_vs_edge --graph=cycle --n=1024
//       --sweep=k:1,2,4,8 --replicas=100 --csv=out.csv
//   opindyn run --spec=experiment.spec [flag overrides]
//
// `run` accepts every spec key as a --key=value flag (see `opindyn help`)
// or a spec file of key=value lines; flags override the file.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "src/engine/runner.h"
#include "src/service/cancel_token.h"
#include "src/service/server.h"
#include "src/support/build_info.h"
#include "src/support/cli.h"

namespace {

using namespace opindyn;
using namespace opindyn::engine;

// Signal plumbing.  Handlers may only touch lock-free atomics:
//  - one-shot `run` cancels its batch token (a single CAS; the runner
//    notices at the next unit/burst boundary, flushes the row prefix
//    and exits 128+signo), and
//  - `serve` records the signo; the serve loops poll it and start the
//    graceful drain.
opindyn::CancelToken g_run_token;
std::atomic<int> g_signal{0};

void handle_run_signal(int signo) {
  g_run_token.cancel(signo == SIGINT ? "SIGINT" : "SIGTERM");
  g_signal.store(signo, std::memory_order_relaxed);
}

void handle_serve_signal(int signo) {
  g_signal.store(signo, std::memory_order_relaxed);
}

int cmd_help() {
  std::cout <<
      R"(opindyn -- scenario engine for the distributed-averaging experiments

usage:
  opindyn list                         show registered scenarios
  opindyn describe --scenario=<name>   show one scenario and its columns
  opindyn run [--spec=<file>] [--key=value ...]
                                       run a scenario batch
  opindyn serve [serve flags]          job-stream service: read one job
                                       per line (spec grammar or JSON)
                                       from stdin or --socket, emit one
                                       JSON record per job (see README
                                       "Service mode")
  opindyn version                      build info (git hash, compiler,
                                       flags); also --version
  opindyn help                         this text

run flags (every spec key; flags override --spec file entries):
  --scenario=<name>      which scenario to run          (default node)
  --graph=<family>       cycle|complete|torus|hypercube|star|...
  --n=<int>              graph size                     (default 64)
  --degree, --attach, --p, --graph-seed   family-specific knobs
  --init=<dist>          rademacher|uniform|gaussian|constant|spike|...
  --init-a, --init-b, --init-seed, --center=plain|degree|none
  --model=<kind>         node|edge|voter|gossip|degroot|friedkin_johnsen|
                         weighted_median|hegselmann_krause; honoured
                         verbatim by cross_model (sweepable there),
                         forced by the single-model scenarios
  --alpha=<f>            self-weight of the update      (default 0.5)
  --confidence=<f>       HK confidence bound (hegselmann_krause only)
  --k=<int>              sampled neighbours (node, weighted_median)
                                                        (default 1)
  --lazy=<bool>          fair-coin no-op steps
  --sampling=without|with  neighbour sampling mode
  --replicas=<int>       Monte-Carlo replicas per item  (default 100)
  --seed=<int>           base seed (replica r forks stream r)
  --threads=<int>        worker threads; every (cell x replica) unit of
                         the sweep grid, and random_regular's pairing
                         attempts, run over one pool; graphs and results
                         are bit-identical for every value
                                                        (default all)
  --eps, --max-steps, --check-interval, --plain-potential
  --horizon=<int>        step horizon for trajectory scenarios (0 = 16n)
  --sweep=key:v1,v2;key2:w1,w2   cartesian sweep grid
  --csv=<path>           also write aggregate rows as CSV
  --rows-csv=<path>      write streamed per-replica rows as CSV
                         (scenarios with row columns: whp_tail,
                         trajectory, thm22_variance, ...)
  --hist-csv=<path>      bin one numeric streamed column into an
                         equal-width histogram CSV (bin_lo,bin_hi,count)
  --hist-column=<name>   which streamed column to bin (default: last);
                         on its own it still prints the summary line
  --hist-bins=<int>      histogram bin count            (default 20)
  --quantiles=q1,q2,...  print exact order-statistic quantiles of the
                         selected streamed column (each q in [0,1])
  --metrics-json=<path>  write a JSON run report: spec echo, build info,
                         counters (steps, cache hits), per-cell timing
                         table, steps/sec, peak RSS
  --trace-json=<path>    write a Chrome trace-event file of the batch
                         (open in Perfetto / chrome://tracing)
  --table=<bool>         print the markdown table       (default true)

serve flags:
  --queue=<int>          admission queue depth; beyond it jobs get an
                         explicit "rejected" record    (default 16)
  --job-workers=<int>    concurrent jobs                (default 2)
  --threads=<int>        shared simulation pool, graph builds
                         included                       (default all)
  --drain-timeout-ms=<int>  grace period for in-flight jobs after
                         SIGTERM/SIGINT before cooperative cancellation
                         (<0 = wait forever)            (default 5000)
  --deadline-ms=<int>    default per-job deadline, counted from
                         admission; jobs override with deadline_ms=
                         (0 = none)
  --graph-cache-entries / --graph-cache-mb
  --spectrum-cache-entries / --spectrum-cache-mb
                         LRU bounds of the process-lifetime caches
  --socket=<path>        listen on a unix socket instead of stdin

examples:
  opindyn run --scenario=node_vs_edge --graph=cycle --n=1024 --sweep=k:1,2,4,8
  opindyn run --scenario=cross_model --graph=cycle --n=64 \
      --sweep=model:node,edge,voter,weighted_median
  opindyn run --scenario=gossip_vs_unilateral --graph=complete --n=16 \
      --replicas=4000 --eps=1e-13
  opindyn run --scenario=whp_tail --graph=cycle --n=24 --replicas=400 \
      --eps=1e-8 --rows-csv=tail.csv
  opindyn run --scenario=thm22_variance --graph=complete --n=16 \
      --replicas=4000 --eps=1e-13 --hist-csv=f.csv --quantiles=0.5,0.9,0.99
)";
  return 0;
}

int cmd_list() {
  register_builtin_scenarios();
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  for (const std::string& name : registry.names()) {
    std::cout << name << "\n    " << registry.get(name).description()
              << "\n";
  }
  return 0;
}

int cmd_describe(const CliArgs& args) {
  register_builtin_scenarios();
  const std::string name = args.get("scenario", std::string{});
  if (name.empty()) {
    std::cerr << "describe: missing --scenario=<name>\n";
    return 2;
  }
  const Scenario& scenario = ScenarioRegistry::instance().get(name);
  std::cout << scenario.name() << ": " << scenario.description() << "\n";
  std::cout << "result columns:";
  for (const std::string& column : scenario.columns()) {
    std::cout << " [" << column << "]";
  }
  std::cout << "\n";
  const std::vector<std::string> row_columns = scenario.row_columns();
  if (!row_columns.empty()) {
    std::cout << "streamed per-replica columns (--rows-csv):";
    for (const std::string& column : row_columns) {
      std::cout << " [" << column << "]";
    }
    std::cout << "\n";
  }
  return 0;
}

int cmd_run(const CliArgs& args) {
  // Reject typo'd flags: a misspelled --replicas would otherwise
  // silently run with the default.
  const std::vector<std::string> known = spec_keys();
  for (const std::string& name : args.option_names()) {
    if (name != "spec" && name != "help" &&
        std::find(known.begin(), known.end(), name) == known.end()) {
      throw std::runtime_error("unknown flag '--" + name +
                               "' (see: opindyn help)");
    }
  }
  const ExperimentSpec spec = parse_spec(args);
  // Ctrl-C / SIGTERM cancel cooperatively: sinks flush the completed
  // cell prefix, --metrics-json is still written (marked
  // "interrupted": true), and we exit 128+signo like an interrupted
  // shell pipeline would.
  std::signal(SIGINT, handle_run_signal);
  std::signal(SIGTERM, handle_run_signal);
  RunContext context;
  context.cancel = &g_run_token;
  const BatchResult result =
      run_experiment_with_default_sinks(spec, context);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  if (result.interrupted) {
    std::cerr << "opindyn: interrupted (" << result.interrupt_reason
              << "); flushed " << result.rows.size()
              << " aggregate rows before stopping\n";
    const int signo = g_signal.load(std::memory_order_relaxed);
    return 128 + (signo != 0 ? signo : SIGINT);
  }
  if (!spec.print_table && spec.csv_path.empty() &&
      spec.hist_csv_path.empty() && spec.hist_column.empty() &&
      spec.quantiles.empty()) {
    std::cout << result.rows.size() << " rows (no sink configured)\n";
  }
  return 0;
}

int cmd_serve(const CliArgs& args) {
  static const std::vector<std::string> known = {
      "queue",          "job-workers",
      "threads",        "drain-timeout-ms",
      "deadline-ms",    "graph-cache-entries",
      "graph-cache-mb", "spectrum-cache-entries",
      "spectrum-cache-mb", "socket"};
  for (const std::string& name : args.option_names()) {
    if (name != "help" &&
        std::find(known.begin(), known.end(), name) == known.end()) {
      throw std::runtime_error("unknown serve flag '--" + name +
                               "' (see: opindyn help)");
    }
  }
  service::ServeOptions options;
  options.queue_depth = static_cast<std::size_t>(args.get(
      "queue", static_cast<std::int64_t>(options.queue_depth)));
  options.job_workers = static_cast<std::size_t>(args.get(
      "job-workers", static_cast<std::int64_t>(options.job_workers)));
  options.threads = static_cast<std::size_t>(
      args.get("threads", static_cast<std::int64_t>(options.threads)));
  options.drain_timeout_ms =
      args.get("drain-timeout-ms", options.drain_timeout_ms);
  options.default_deadline_ms =
      args.get("deadline-ms", options.default_deadline_ms);
  options.graph_cache_limits.max_entries =
      static_cast<std::size_t>(args.get(
          "graph-cache-entries",
          static_cast<std::int64_t>(
              options.graph_cache_limits.max_entries)));
  options.graph_cache_limits.max_bytes =
      static_cast<std::uint64_t>(args.get(
          "graph-cache-mb",
          static_cast<std::int64_t>(
              options.graph_cache_limits.max_bytes >> 20)))
      << 20;
  options.spectrum_cache_limits.max_entries =
      static_cast<std::size_t>(args.get(
          "spectrum-cache-entries",
          static_cast<std::int64_t>(
              options.spectrum_cache_limits.max_entries)));
  options.spectrum_cache_limits.max_bytes =
      static_cast<std::uint64_t>(args.get(
          "spectrum-cache-mb",
          static_cast<std::int64_t>(
              options.spectrum_cache_limits.max_bytes >> 20)))
      << 20;
  options.socket_path = args.get("socket", std::string{});
  options.signal_flag = &g_signal;
  if (options.default_deadline_ms < 0 ||
      options.default_deadline_ms > service::kMaxDeadlineMs) {
    throw std::runtime_error(
        "--deadline-ms must be in [0, " +
        std::to_string(service::kMaxDeadlineMs) + "]");
  }
  register_builtin_scenarios();
  std::signal(SIGINT, handle_serve_signal);
  std::signal(SIGTERM, handle_serve_signal);
  // A client that vanishes (closed socket, dead stdout reader) must
  // surface as EPIPE inside write_all, not as a process-killing
  // SIGPIPE: fault isolation covers the transport too.
  std::signal(SIGPIPE, SIG_IGN);
  const bool socket_mode = !options.socket_path.empty();
  service::JobStreamService server(std::move(options));
  const int code =
      socket_mode ? server.serve_socket() : server.serve_stdin();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGPIPE, SIG_DFL);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string command =
      args.positional().empty() ? "help" : args.positional().front();
  try {
    // --version wins over the bare-invocation help default.
    if (command == "version" || args.has("version")) {
      std::cout << build_info_text();
      return 0;
    }
    if (command == "help" || args.has("help")) {
      return cmd_help();
    }
    if (command == "list") {
      return cmd_list();
    }
    if (command == "describe") {
      return cmd_describe(args);
    }
    if (command == "run") {
      return cmd_run(args);
    }
    if (command == "serve") {
      return cmd_serve(args);
    }
    std::cerr << "unknown command '" << command
              << "' (try: opindyn help)\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "opindyn: " << error.what() << "\n";
    return 1;
  }
}
