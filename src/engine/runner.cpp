#include "src/engine/runner.h"

#include <chrono>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/engine/run_report.h"
#include "src/graph/graph_cache.h"
#include "src/service/cancel_token.h"
#include "src/spectral/spectrum_cache.h"
#include "src/support/assert.h"

namespace opindyn {
namespace engine {
namespace {

/// Everything the runner keeps alive for one grid cell: the resolved
/// spec, the (shared) graph, the initial opinions, and the scenario's
/// deferred fold.  Batch bodies capture references into this object, so
/// cells are heap-allocated and outlive the scheduler (declared after
/// them below, hence destroyed -- and drained -- first).
struct Cell {
  ExperimentSpec item;
  std::shared_ptr<const Graph> graph;
  std::shared_ptr<GraphSpectra> spectra;
  std::vector<double> initial;
  /// The cells every row of this cell starts with: scenario, graph, n,
  /// replicas, then the non-base sweep labels.
  std::vector<std::string> prefix;
  /// The cell's per-replica row channel (the prefix encoded once,
  /// blocks delivered to the replica flush); unused without row sinks.
  RowStream rows;
  CellFold fold;
};

/// One distinct graph of the grid.  The spectra record is pinned here
/// for the whole batch, so an LRU eviction between the prefetch pass and
/// the cells cannot throw away a finished eigensolve.
struct GraphPrefetch {
  const ExperimentSpec* item = nullptr;  // the first cell on the graph
  SpectrumNeeds initial;                 // union over the graph's cells
  std::shared_ptr<GraphSpectra> spectra;
  SpectrumNeeds solved_before;  // what the record held when fetched
};

/// Scenario lookup (throws with near-match suggestions for unknown
/// names).  Shared by run_experiment and the default-sink wrapper, so
/// the wrapper can validate BEFORE it opens -- and truncates -- any
/// output file.
const Scenario& resolve_scenario(const ExperimentSpec& spec) {
  register_builtin_scenarios();
  return ScenarioRegistry::instance().get(spec.scenario);
}

/// Wall-clock phase instrumentation: records one "phase" trace span and
/// one phase.<name> timer over its lifetime.  A no-op without metrics.
class PhaseTimer {
 public:
  PhaseTimer(MetricsRegistry* metrics, const char* name)
      : metrics_(metrics), name_(name) {
    if (metrics_ != nullptr) {
      start_us_ = metrics_->now_us();
    }
  }
  ~PhaseTimer() {
    if (metrics_ == nullptr) {
      return;
    }
    const std::uint64_t end_us = metrics_->now_us();
    metrics_->buffer().add_span(
        TraceSpan{name_, "phase", -1, start_us_, end_us - start_us_, 0});
    metrics_->add_timing(std::string("phase.") + name_,
                         static_cast<double>(end_us - start_us_) / 1000.0);
  }

 private:
  MetricsRegistry* metrics_;
  const char* name_;
  std::uint64_t start_us_ = 0;
};

/// Throws unless `scenario` streams per-replica rows (the row-channel
/// consumers --rows-csv / --hist-csv / --quantiles require it).
void require_row_channel(const Scenario& scenario) {
  if (scenario.row_columns().empty()) {
    throw std::runtime_error(
        "scenario '" + scenario.name() +
        "' streams no per-replica rows; drop --rows-csv / --hist-csv / "
        "--quantiles or pick a streaming scenario (see `opindyn "
        "describe`)");
  }
}

}  // namespace

void validate_spec(const ExperimentSpec& spec) {
  const Scenario& scenario = resolve_scenario(spec);
  if (!spec.rows_csv_path.empty() || !spec.hist_csv_path.empty() ||
      !spec.hist_column.empty() || !spec.quantiles.empty()) {
    require_row_channel(scenario);
  }
  for (const SweepPoint& point : expand_grid(spec)) {
    ExperimentSpec cell = spec;
    for (const auto& [key, value] : point.overrides) {
      apply_override(cell, key, value);
    }
    // One-line errors naming the key: the library preconditions these
    // ranges mirror would name a source file instead.
    std::ostringstream bad;
    if (cell.replicas < 1) {
      bad << "'replicas': expected an integer >= 1, got " << cell.replicas;
    } else if (!(cell.convergence.epsilon > 0.0)) {
      bad << "'eps': expected a number > 0, got " << cell.convergence.epsilon;
    } else if (cell.convergence.max_steps < 0) {
      bad << "'max-steps': expected an integer >= 0, got "
          << cell.convergence.max_steps;
    } else if (!(cell.model.alpha >= 0.0 && cell.model.alpha < 1.0)) {
      bad << "'alpha': expected a number in [0, 1), got " << cell.model.alpha;
    } else if (cell.model.k < 1) {
      bad << "'k': expected an integer >= 1, got " << cell.model.k;
    }
    std::string why = bad.str();
    if (why.empty()) {
      why = graph_spec_error(cell.graph);
    }
    if (why.empty()) {
      why = initial_spec_error(cell.initial);
    }
    if (!why.empty()) {
      throw std::runtime_error("spec key " + why);
    }
    scenario.validate(cell);
  }
}

std::vector<SweepPoint> expand_grid(const ExperimentSpec& spec) {
  std::vector<SweepPoint> grid{SweepPoint{}};
  for (const SweepAxis& axis : spec.sweeps) {
    OPINDYN_EXPECTS(!axis.values.empty(), "sweep axis with no values");
    std::vector<SweepPoint> next;
    next.reserve(grid.size() * axis.values.size());
    for (const SweepPoint& point : grid) {
      for (const std::string& value : axis.values) {
        SweepPoint extended = point;
        extended.overrides.emplace_back(axis.key, value);
        next.push_back(std::move(extended));
      }
    }
    grid = std::move(next);
  }
  return grid;
}

BatchResult run_experiment(const ExperimentSpec& spec,
                           const std::vector<RowSink*>& sinks,
                           const std::vector<RowSink*>& row_sinks,
                           MetricsRegistry* metrics) {
  RunContext context;
  context.metrics = metrics;
  return run_experiment(spec, sinks, row_sinks, context);
}

BatchResult run_experiment(const ExperimentSpec& spec,
                           const std::vector<RowSink*>& sinks,
                           const std::vector<RowSink*>& row_sinks,
                           const RunContext& context) {
  const Scenario& scenario = resolve_scenario(spec);
  MetricsRegistry* const metrics = context.metrics;
  // The batch's ambient cancel token: batch submissions on this thread
  // capture it (see CellScheduler::submit) and the phase loops below
  // poll it between cells, so cancellation lands wherever the batch
  // currently is without any per-step cost.
  const CancelScope cancel_scope(context.cancel);

  // Base columns first, then one label column per sweep axis, then the
  // scenario's own result columns.  Axes over "graph"/"n" get no label
  // column: the base columns already show the resolved values.  The
  // streamed per-replica channel carries the same prefix.
  const auto is_base_key = [](const std::string& key) {
    return key == "graph" || key == "n";
  };
  std::vector<std::string> prefix_columns = {"scenario", "graph", "n",
                                             "replicas"};
  for (const SweepAxis& axis : spec.sweeps) {
    if (!is_base_key(axis.key)) {
      prefix_columns.push_back(axis.key);
    }
  }

  BatchResult result;
  result.columns = prefix_columns;
  const std::vector<std::string> scenario_columns = scenario.columns();
  result.columns.insert(result.columns.end(), scenario_columns.begin(),
                        scenario_columns.end());
  const std::vector<std::string> scenario_row_columns =
      scenario.row_columns();
  if (!row_sinks.empty()) {
    require_row_channel(scenario);
    result.replica_columns = prefix_columns;
    result.replica_columns.insert(result.replica_columns.end(),
                                  scenario_row_columns.begin(),
                                  scenario_row_columns.end());
  }
  // Per-replica rows cost O(replicas x checkpoints) strings per cell,
  // so they are only generated when a row sink consumes them.
  const bool stream_rows = !result.replica_columns.empty();

  const std::vector<SweepPoint> grid = expand_grid(spec);

  OrderedFlush aggregate_flush(sinks, grid.size());
  aggregate_flush.begin(result.columns);
  OrderedFlush replica_flush(row_sinks, grid.size(), &result.replica_rows);
  if (stream_rows) {
    replica_flush.begin(result.replica_columns);
  }

  // Phase 1: resolve every cell and submit its replica batches.  Cells
  // are declared before the local scheduler so the scheduler is
  // destroyed (and its pool drained) first -- unit bodies reference the
  // cells.  When the context supplies shared infrastructure instead,
  // the explicit drain below (submitted.wait_all) guarantees no unit
  // outlives this frame's locals.
  std::vector<std::unique_ptr<Cell>> cells;
  std::optional<GraphCache> local_graph_cache;
  std::optional<SpectrumCache> local_spectrum_cache;
  std::optional<CellScheduler> local_scheduler;
  GraphCache& graph_cache = context.graph_cache != nullptr
                                ? *context.graph_cache
                                : local_graph_cache.emplace();
  SpectrumCache& spectrum_cache = context.spectrum_cache != nullptr
                                      ? *context.spectrum_cache
                                      : local_spectrum_cache.emplace();
  CellScheduler& scheduler = context.scheduler != nullptr
                                 ? *context.scheduler
                                 : local_scheduler.emplace(spec.threads);
  if (local_scheduler.has_value()) {
    scheduler.set_metrics(metrics);
  }

  // Shared caches are cumulative across jobs, so every counter the
  // result reports is a delta against this snapshot (identical to the
  // absolute value for the historical per-batch caches).
  const std::int64_t base_graph_hits = graph_cache.hits();
  const std::int64_t base_graph_misses = graph_cache.misses();
  const std::int64_t base_graph_evictions = graph_cache.evictions();
  const std::int64_t base_record_hits = spectrum_cache.hits();
  const std::int64_t base_record_misses = spectrum_cache.misses();
  const std::int64_t base_eigensolves = spectrum_cache.eigensolves();
  const std::int64_t base_vector_solves = spectrum_cache.vector_solves();
  const std::int64_t base_spectrum_hits = spectrum_cache.spectrum_hits();
  const std::int64_t base_spectrum_evictions = spectrum_cache.evictions();
  // Keyed by graph_cache_key; filled by the prefetch pass.
  std::map<std::string, GraphPrefetch> distinct;
  // The units solving the scenario's declared spectra, one per graph.
  std::vector<std::shared_ptr<ReplicaBatch>> declared_solves;

  // Every batch this run submits, prefetch to last cell.  On any unwind
  // (cancellation, a failing cell) submitted.wait_all() lets the
  // in-flight units finish before the cells they reference are
  // destroyed: with a shared scheduler there is no pool destructor
  // between them and the frame's death, and running the folds instead
  // is not enough -- a fold whose first batch reports the cancellation
  // never waits on the cell's other batches.
  CellScheduler::SubmitLog submitted;

  bool interrupted = false;
  const char* interrupt_reason = nullptr;
  try {
    {
      const PhaseTimer phase(metrics, "expand");
      cells.reserve(grid.size());
      for (const SweepPoint& point : grid) {
        auto cell = std::make_unique<Cell>();
        cell->item = spec;
        cell->item.sweeps.clear();
        for (const auto& [key, value] : point.overrides) {
          apply_override(cell->item, key, value);
          if (!is_base_key(key)) {
            cell->prefix.push_back(value);  // base cells go in front later
          }
        }
        cells.push_back(std::move(cell));
      }
    }

    // Prefetch each distinct graph of the grid on the pool: one unit per
    // key builds the graph and -- for the f2_* eigenvector initials --
    // runs the matching eigensolve.  The caches' per-key latches are what
    // make this safe AND parallel: a cold sweep over distinct graphs
    // constructs and solves concurrently instead of serialising on this
    // thread, while the warm gets below just read the memo.  Values are
    // deterministic per key, so results never depend on prefetch order.
    {
      const PhaseTimer phase(metrics, "prefetch");
      scheduler.set_submit_label("prefetch");
      for (const auto& cell : cells) {
        GraphPrefetch& entry =
            distinct.try_emplace(graph_cache_key(cell->item.graph))
                .first->second;
        if (entry.item == nullptr) {
          entry.item = &cell->item;
        }
        entry.initial =
            entry.initial | initial_reads_spectra(cell->item.initial);
      }
      std::vector<std::shared_ptr<ReplicaBatch>> prefetch;
      prefetch.reserve(distinct.size());
      for (auto& [cache_key, entry] : distinct) {
        prefetch.push_back(scheduler.submit(
            1, 0, 1,
            [&graph_cache, &spectrum_cache, &scheduler, metrics,
             &cache_key = cache_key,
             &entry = entry](std::int64_t, Rng&, std::span<double>) {
              // The builder lambdas only run on a cache miss (under the
              // per-key latch), so the spans below time actual builds.
              // A build that searches (random_regular) also offers its
              // attempts to idle workers; it waits only on attempts
              // already running, never on a queued helper.
              const auto graph = graph_cache.get(
                  cache_key, [&entry, &scheduler, metrics, &cache_key] {
                    const ScopedSpan span(metrics, cache_key, "graph_build");
                    return build_graph(entry.item->graph, &scheduler);
                  });
              entry.spectra = spectrum_cache.get(cache_key, graph);
              entry.solved_before = entry.spectra->solved();
              if (entry.initial.any()) {
                const ScopedSpan span(metrics, cache_key, "eigensolve");
                entry.spectra->solve(entry.initial);
              }
            }));
      }
      // A failed build throws here; the unwind's wait_all() still waits
      // out the other prefetch units, which use this frame's keys.
      for (const auto& batch : prefetch) {
        batch->wait();
      }

      // Queue one unit per graph solving the spectra the scenario
      // declares, ahead of every cell's units.  The pool runs units in
      // FIFO order, so distinct graphs' eigensolves start at the same
      // time on different workers while the replicas fill the rest, and
      // the scenario's prediction units find the memo (or the solve in
      // flight) instead of solving one graph after the other.
      const SpectrumNeeds declared = scenario.reads_spectra();
      for (const auto& [cache_key, entry] : distinct) {
        const SpectrumNeeds left{
            declared.walk && !entry.initial.walk,
            declared.laplacian && !entry.initial.laplacian,
            declared.walk_f2 && !entry.initial.walk_f2,
            declared.laplacian_f2 && !entry.initial.laplacian_f2};
        if (!left.any()) {
          continue;
        }
        declared_solves.push_back(scheduler.submit(
            1, 0, 1,
            [spectra = entry.spectra, left, metrics,
             cache_key = cache_key](std::int64_t, Rng&, std::span<double>) {
              const ScopedSpan span(metrics, cache_key, "eigensolve");
              try {
                spectra->solve(left);
              } catch (const ContractError&) {
                // A graph the solver rejects (an isolated node, say) is
                // left unsolved: the scenario validates the cell first
                // and reports its own error, or its unit's read reports
                // the solver's.
              }
            }));
      }
      scheduler.set_submit_label("");
    }

    const std::int64_t setup_units = submitted.units();
    {
      const PhaseTimer phase(metrics, "start");
      for (std::size_t index = 0; index < cells.size(); ++index) {
        cancel::poll();
        Cell& cell = *cells[index];
        const std::string cache_key = graph_cache_key(cell.item.graph);
        cell.graph = graph_cache.get(
            cache_key, [&cell] { return build_graph(cell.item.graph); });
        // The spectra record is shared per graph key and pinned by the
        // prefetch pass, which solved what the f2_* initials below read;
        // the scenario's units hit the memo its declared solves fill.
        cell.spectra = distinct.at(cache_key).spectra;
        cell.initial = build_initial(cell.item.initial, *cell.graph,
                                     cell.spectra.get());
        // The sweep labels follow the base cells.
        cell.prefix.insert(cell.prefix.begin(),
                           {scenario.name(), cell.graph->name(),
                            std::to_string(cell.graph->node_count()),
                            std::to_string(cell.item.replicas)});
        if (stream_rows) {
          // Encoded once here, copied in front of every per-replica row.
          for (const std::string& text : cell.prefix) {
            append_csv_field(cell.rows.prefix, text);
            cell.rows.prefix += ',';
          }
          cell.rows.width = scenario_row_columns.size();
          cell.rows.deliver = [&replica_flush, index](std::int64_t replica,
                                                      RowBlock block) {
            replica_flush.deliver(index, static_cast<std::size_t>(replica),
                                  std::move(block));
          };
        }
        const RunInput input{cell.item,     *cell.graph, cell.initial,
                             *cell.spectra, scheduler,
                             stream_rows ? &cell.rows : nullptr,
                             metrics};
        // Submits inside start() run synchronously on this thread, so the
        // label tags every batch of this cell; counters bumped inside the
        // cell's units then land in the report's "cell/<index>" row.
        scheduler.set_submit_label("cell/" + std::to_string(index));
        cell.fold = scenario.start(input);
        CellSummary summary;
        summary.label = "cell/" + std::to_string(index);
        summary.graph = cell.graph->name();
        summary.n = cell.graph->node_count();
        summary.replicas = cell.item.replicas;
        summary.overrides = grid[index].overrides;
        result.cells.push_back(std::move(summary));
      }
      scheduler.set_submit_label("");
    }
    // Phase 2: fold in cell order.  Each fold blocks only on its own
    // cell's batches while every later cell keeps running on the pool;
    // the OrderedFlush then releases rows to the sinks in cell order.
    const PhaseTimer fold_phase(metrics, "fold");
    for (std::size_t index = 0; index < cells.size(); ++index) {
      cancel::poll();
      Cell& cell = *cells[index];
      CellRows cell_rows = cell.fold();
      cell.fold = nullptr;  // release the batch handles

      // Aggregate rows: a handful per cell, prefixed here and kept in
      // the result as cells, then encoded as one block for the sinks.
      RowEmitter aggregate;
      for (const std::vector<std::string>& suffix : cell_rows.aggregate) {
        OPINDYN_EXPECTS(suffix.size() == scenario_columns.size(),
                        "scenario returned an aggregate row of the wrong "
                        "width");
        std::vector<std::string> row = cell.prefix;
        row.insert(row.end(), suffix.begin(), suffix.end());
        aggregate.row();
        for (const std::string& text : row) {
          aggregate.text(text);
        }
        result.rows.push_back(std::move(row));
      }
      aggregate_flush.cell_done(index, aggregate.take());

      // Per-replica rows: the units' blocks already went to the flush as
      // each replica finished; the fold's own rows follow them and
      // close the cell.
      if (stream_rows) {
        replica_flush.cell_done(index, std::move(cell_rows.replica));
      } else {
        OPINDYN_EXPECTS(cell_rows.replica.rows == 0,
                        "scenario streamed rows that nothing consumes");
      }
      result.work_items += 1;
    }
    result.units = submitted.units() - setup_units;
    for (const auto& batch : declared_solves) {
      batch->wait();
    }
  } catch (const CancelledError& error) {
    // Cooperative cancellation is an outcome, not a failure: remember
    // the reason, let the drain below retire the remaining cells, and
    // return the flushed prefix.
    scheduler.set_submit_label("");
    interrupted = true;
    interrupt_reason = error.reason();
  } catch (...) {
    scheduler.set_submit_label("");
    submitted.wait_all();
    throw;
  }
  // On the success path every batch is already done, so this is a
  // no-op; on the interrupted path it retires the remaining units (a
  // cancelled batch skips its pending units, so this returns promptly).
  submitted.wait_all();
  result.interrupted = interrupted;
  if (interrupted && interrupt_reason != nullptr) {
    result.interrupt_reason = interrupt_reason;
  }
  // The only certified cells are trajectory's potential, one per row.
  result.row_exact_phis = result.replica_rows.exact_cells();

  // Cache counters are read only now: builds and eigensolves run lazily
  // inside pool batches, which have all completed once every fold (or
  // the drain) returned.  Misses are counted per key on first request
  // (the prefetch pass), so graphs_built is still "distinct graphs
  // actually constructed for this batch".
  result.graphs_built = graph_cache.misses() - base_graph_misses;
  result.graph_cache_hits = graph_cache.hits() - base_graph_hits;
  result.graph_cache_evictions = graph_cache.evictions() - base_graph_evictions;
  result.graph_cache_resident_bytes = graph_cache.resident_bytes();
  result.spectra_solved = spectrum_cache.eigensolves() - base_eigensolves;
  result.spectra_vector_solves =
      spectrum_cache.vector_solves() - base_vector_solves;
  result.spectra_hits = spectrum_cache.spectrum_hits() - base_spectrum_hits;
  // A late solve is one of a spectrum neither the scenario nor the
  // cells' initial distribution declared: it ran behind whichever unit
  // read it first instead of up front.
  for (const auto& [cache_key, entry] : distinct) {
    if (entry.spectra == nullptr) {
      continue;  // interrupted before the prefetch fetched it
    }
    const SpectrumNeeds declared = scenario.reads_spectra() | entry.initial;
    const SpectrumNeeds solved = entry.spectra->solved();
    const SpectrumNeeds& before = entry.solved_before;
    result.spectra_late_solves +=
        (solved.walk && !before.walk && !declared.walk) +
        (solved.laplacian && !before.laplacian && !declared.laplacian) +
        (solved.walk_f2 && !before.walk_f2 && !declared.walk_f2) +
        (solved.laplacian_f2 && !before.laplacian_f2 &&
         !declared.laplacian_f2);
  }
  result.spectrum_record_hits = spectrum_cache.hits() - base_record_hits;
  result.spectrum_record_misses = spectrum_cache.misses() - base_record_misses;
  result.spectrum_cache_evictions =
      spectrum_cache.evictions() - base_spectrum_evictions;
  result.spectrum_cache_resident_bytes = spectrum_cache.resident_bytes();

  if (metrics != nullptr) {
    // Cache and batch totals are deterministic (they depend only on the
    // grid), so they join the counter section; the scheduler's in-flight
    // high-water mark and the caches' resident footprint are
    // timing-/history-dependent and go in as gauges.
    MetricsBuffer& buffer = metrics->buffer();
    buffer.count("engine.cells",
                 static_cast<std::int64_t>(cells.size()));
    buffer.count("engine.rows_emitted",
                 static_cast<std::int64_t>(result.rows.size()));
    buffer.count("engine.replica_rows_emitted",
                 static_cast<std::int64_t>(result.replica_rows.size()));
    buffer.count("engine.row_exact_phis", result.row_exact_phis);
    buffer.count("graph_cache.builds", result.graphs_built);
    buffer.count("graph_cache.hits", result.graph_cache_hits);
    buffer.count("graph_cache.evictions", result.graph_cache_evictions);
    buffer.count("spectrum_cache.eigensolves", result.spectra_solved);
    buffer.count("spectrum_cache.vector_solves",
                 result.spectra_vector_solves);
    buffer.count("spectrum_cache.hits", result.spectra_hits);
    buffer.count("spectrum_cache.late_solves", result.spectra_late_solves);
    buffer.count("spectrum_cache.evictions",
                 result.spectrum_cache_evictions);
    metrics->set_gauge("scheduler.max_inflight_units",
                       scheduler.max_inflight_units());
    metrics->set_gauge(
        "graph_cache.resident_bytes",
        static_cast<std::int64_t>(result.graph_cache_resident_bytes));
    metrics->set_gauge(
        "spectrum_cache.resident_bytes",
        static_cast<std::int64_t>(result.spectrum_cache_resident_bytes));
  }

  if (interrupted) {
    // Close the sinks over the flushed prefix: partial CSVs beat losing
    // a long run's entire output to a Ctrl-C.
    aggregate_flush.finish_partial();
    if (stream_rows) {
      replica_flush.finish_partial();
    }
  } else {
    aggregate_flush.finish();
    if (stream_rows) {
      replica_flush.finish();
    }
  }
  return result;
}

SpecSinks::SpecSinks(const ExperimentSpec& spec, std::ostream* summary_out) {
  if (!spec.csv_path.empty()) {
    sinks.push_back(&csv_.emplace(spec.csv_path));
  }
  if (!spec.rows_csv_path.empty()) {
    row_sinks.push_back(&rows_csv_.emplace(spec.rows_csv_path));
  }
  // --hist-csv / --hist-column / --quantiles summarize the streamed row
  // channel, so any of them activates it (and, like --rows-csv,
  // requires a scenario that declares row columns) -- a bare
  // --hist-column still prints the one-line summary rather than being
  // silently ignored.
  if (!spec.hist_csv_path.empty() || !spec.hist_column.empty() ||
      !spec.quantiles.empty()) {
    HistogramSink::Options options;
    options.column = spec.hist_column;
    options.bins = spec.hist_bins;
    options.quantiles = spec.quantiles;
    options.csv_path = spec.hist_csv_path;
    options.summary_out = summary_out;
    row_sinks.push_back(&histogram_.emplace(std::move(options)));
  }
}

BatchResult run_experiment_with_default_sinks(const ExperimentSpec& spec) {
  return run_experiment_with_default_sinks(spec, RunContext{});
}

BatchResult run_experiment_with_default_sinks(const ExperimentSpec& spec,
                                              const RunContext& context) {
  // Validate the whole spec BEFORE any file sink opens: opening
  // truncates, and a typo'd --scenario or a bad sweep value must not
  // wipe a pre-existing output file.
  validate_spec(spec);

  // File sinks open their paths at construction, so a typo'd --csv /
  // --rows-csv / --hist-csv directory fails right here -- with the path
  // in the message -- instead of after the whole batch has run (or,
  // worse, silently with exit 0).  The one-line histogram/quantile
  // summary prints even with --table=false: asking for --quantiles and
  // getting silence would make the flag useless in quiet mode.
  SpecSinks spec_sinks(spec, &std::cout);
  TableSink table(std::cout);
  std::vector<RowSink*> sinks = spec_sinks.sinks;
  if (spec.print_table) {
    sinks.insert(sinks.begin(), &table);
  }
  // The report / trace paths are probed up front for the same reason:
  // a typo'd --metrics-json directory must fail before the batch runs,
  // not after minutes of simulation (probing appends nothing, so a
  // pre-existing file survives an unrelated validation failure).
  const bool wants_metrics =
      !spec.metrics_json_path.empty() || !spec.trace_json_path.empty();
  if (!spec.metrics_json_path.empty()) {
    probe_output_path(spec.metrics_json_path);
  }
  if (!spec.trace_json_path.empty()) {
    probe_output_path(spec.trace_json_path);
  }
  std::optional<MetricsRegistry> registry;
  if (wants_metrics) {
    registry.emplace();
  }

  const auto wall_start = std::chrono::steady_clock::now();
  RunContext run_context = context;
  if (registry.has_value()) {
    run_context.metrics = &*registry;
  }
  BatchResult result =
      run_experiment(spec, sinks, spec_sinks.row_sinks, run_context);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  if (registry.has_value()) {
    const FoldedMetrics folded = registry->fold();
    if (!spec.metrics_json_path.empty()) {
      RunReportOptions options;
      options.wall_ms = wall_ms;
      write_json_file(spec.metrics_json_path,
                      build_run_report(spec, result, folded, options));
      if (spec.print_table) {
        std::cout << "\nwrote run report to " << spec.metrics_json_path
                  << "\n";
      }
    }
    if (!spec.trace_json_path.empty()) {
      write_json_file(spec.trace_json_path, build_trace_json(folded));
      if (spec.print_table) {
        std::cout << (spec.metrics_json_path.empty() ? "\n" : "")
                  << "wrote trace to " << spec.trace_json_path << "\n";
      }
    }
  }
  if (!spec.csv_path.empty() && spec.print_table) {
    std::cout << "\nwrote " << result.rows.size() << " rows to "
              << spec.csv_path << "\n";
  }
  if (!spec.rows_csv_path.empty() && spec.print_table) {
    std::cout << (spec.csv_path.empty() ? "\n" : "") << "wrote "
              << result.replica_rows.size() << " per-replica rows to "
              << spec.rows_csv_path << "\n";
  }
  return result;
}

}  // namespace engine
}  // namespace opindyn
