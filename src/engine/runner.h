// The batch scheduler: expands an ExperimentSpec's sweep axes into the
// cartesian grid of cells, resolves every cell up front (graphs come
// from a per-batch GraphCache, so a sweep over model parameters builds
// each distinct graph once), submits every cell's replica batches to one
// shared CellScheduler -- all (cell x replica) units are in flight on
// one thread pool at once -- and folds the cells in grid order, routing
// aggregate and streamed per-replica rows through an OrderedFlush to the
// configured sinks.  Grid expansion, Rng stream assignment, fold order
// and emission order are all independent of the thread count, so the
// emitted CSV bytes are identical for any --threads value.
#ifndef OPINDYN_ENGINE_RUNNER_H
#define OPINDYN_ENGINE_RUNNER_H

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/engine/experiment_spec.h"
#include "src/engine/scenario.h"
#include "src/engine/sinks.h"
#include "src/support/metrics.h"

namespace opindyn {

class CancelToken;
class GraphCache;
class SpectrumCache;

namespace engine {

/// One grid point: the sweep overrides that produce it, in axis order.
struct SweepPoint {
  std::vector<std::pair<std::string, std::string>> overrides;
};

/// Cartesian product of the spec's sweep axes, row-major with the first
/// axis slowest.  A spec without sweeps yields one empty point.
std::vector<SweepPoint> expand_grid(const ExperimentSpec& spec);

/// Deterministic description of one resolved grid cell, kept for the
/// run report's per-cell table (the labels match the "cell/<index>"
/// batch labels the scheduler's metrics are recorded under).
struct CellSummary {
  std::string label;  // "cell/<index>" in grid order
  std::string graph;
  std::int64_t n = 0;
  std::int64_t replicas = 0;
  /// The sweep overrides that produced this cell, in axis order.
  std::vector<std::pair<std::string, std::string>> overrides;
};

struct BatchResult {
  /// Aggregate channel: base + sweep-label + scenario columns.
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  /// Streamed per-replica channel.  Only populated when the scenario
  /// declares row_columns() AND a row sink was passed (pass a
  /// MemorySink to consume the rows programmatically) -- otherwise the
  /// rows are never even generated, so aggregate-only runs don't pay
  /// O(replicas x checkpoints) memory.  The table owns the blocks the
  /// row sinks were handed, in the same order (moved, not copied).
  std::vector<std::string> replica_columns;
  RowTable replica_rows;
  /// Per-replica rows whose potential needed the O(n) exact pass
  /// because its certified O(1) interval straddled a printed digit
  /// (RowEmitter::sci_certified); deterministic, 0 without row sinks.
  std::int64_t row_exact_phis = 0;
  std::int64_t work_items = 0;
  /// Scheduler units the cells' batches ran (ReplicaBatch::units()
  /// summed; the graph prefetch and declared-solve units excluded): one
  /// per lane group or lone replica.  Deterministic: it depends on the
  /// grid and the CPU's lane support, never on the thread count.
  std::int64_t units = 0;
  /// Distinct graphs actually constructed; < work_items whenever the
  /// cache shared a graph across cells.
  std::int64_t graphs_built = 0;
  /// Graph requests served from the cache without building -- the other
  /// half of the hit-rate that graphs_built (misses) alone cannot show.
  std::int64_t graph_cache_hits = 0;
  /// Eigensolves actually run by the batch-wide SpectrumCache: at most
  /// one per distinct graph and spectrum kind (walk / Laplacian), no
  /// matter how many cells or replicas consumed the result.  0 when the
  /// scenario and the initial distribution need no spectra.
  std::int64_t spectra_solved = 0;
  /// The part of spectra_solved that also computed eigenvectors (f_2
  /// for an f2_* initial state or propB1_drop); the rest solved
  /// eigenvalues only.
  std::int64_t spectra_vector_solves = 0;
  /// Spectrum requests served from the memoised records.
  std::int64_t spectra_hits = 0;
  /// Eigensolves (part of spectra_solved) of spectra that neither the
  /// scenario (Scenario::reads_spectra) nor the cells' initial
  /// distribution declared, so they ran behind the unit that read them
  /// first.  0 for every built-in scenario; deterministic, like the
  /// other cache counters.
  std::int64_t spectra_late_solves = 0;
  /// Spectra-record lookups that found / had to create a record.
  std::int64_t spectrum_record_hits = 0;
  std::int64_t spectrum_record_misses = 0;
  /// LRU evictions charged to this batch (0 unless the caller shared
  /// bounded caches via RunContext) and the caches' resident footprint
  /// when the batch finished.
  std::int64_t graph_cache_evictions = 0;
  std::uint64_t graph_cache_resident_bytes = 0;
  std::int64_t spectrum_cache_evictions = 0;
  std::uint64_t spectrum_cache_resident_bytes = 0;
  /// True when the batch was stopped by a cooperative cancellation
  /// (SIGINT, serve-mode deadline or drain) instead of completing: the
  /// rows hold the flushed prefix of cells and `interrupt_reason` holds
  /// the CancelToken's reason.  Errors other than cancellation still
  /// throw.
  bool interrupted = false;
  std::string interrupt_reason;
  /// One entry per grid cell, in grid (= fold = emission) order.
  std::vector<CellSummary> cells;
};

/// Shared infrastructure a batch should run on.  Every field defaults
/// to nullptr = "the runner builds its own per-batch instance", which
/// is exactly the historical behaviour; serve mode passes its
/// process-lifetime scheduler and bounded caches plus a per-job cancel
/// token, and the one-shot CLI passes its SIGINT token.
struct RunContext {
  /// Shared pool; when set, spec.threads is ignored (the pool's size
  /// wins) -- results are bit-identical either way.
  CellScheduler* scheduler = nullptr;
  GraphCache* graph_cache = nullptr;
  SpectrumCache* spectrum_cache = nullptr;
  /// Polled between replica units and step bursts; a cancelled token
  /// yields an interrupted (not failed) BatchResult.
  const CancelToken* cancel = nullptr;
  MetricsRegistry* metrics = nullptr;
};

/// Checks everything about `spec` that can fail before any work runs,
/// with one-line errors: the scenario name, its row channel when a
/// row-consuming output (rows-csv, hist-csv, hist-column, quantiles) is
/// set, and every grid cell -- its sweep overrides applied to a copy,
/// then replicas >= 1, eps > 0, max-steps >= 0, the graph and initial
/// parameters (graph_spec_error / initial_spec_error) and the scenario's
/// own Scenario::validate (cross_model's model/knob check).  The default-sink
/// wrapper and serve mode call it before SpecSinks opens (and
/// truncates) any output file.
void validate_spec(const ExperimentSpec& spec);

/// Runs the full batch: looks up the scenario, expands the grid, builds
/// the per-cell graph (cached) and initial opinions, schedules every
/// cell's replicas over one pool, and streams aggregate rows to `sinks`
/// and per-replica rows to `row_sinks` (begin/row/finish, in cell
/// order).  Also returns everything in the BatchResult for programmatic
/// callers.
///
/// `metrics` (optional) turns on observability for the batch: phase
/// timings and per-(cell x replica) spans are recorded into the
/// registry, counters bumped inside replica bodies are attributed to
/// their cell, and cache/scheduler totals are folded in at batch end --
/// see engine/run_report.h for turning the registry into a manifest.
/// The emitted rows and CSV bytes are identical with and without it.
BatchResult run_experiment(const ExperimentSpec& spec,
                           const std::vector<RowSink*>& sinks = {},
                           const std::vector<RowSink*>& row_sinks = {},
                           MetricsRegistry* metrics = nullptr);

/// As above, but running on the caller's shared infrastructure (see
/// RunContext).  Cache counters in the BatchResult are per-batch deltas,
/// so they mean the same thing for shared and per-batch caches.
BatchResult run_experiment(const ExperimentSpec& spec,
                           const std::vector<RowSink*>& sinks,
                           const std::vector<RowSink*>& row_sinks,
                           const RunContext& context);

/// The file sinks a spec asks for, in both channels: `csv` on the
/// aggregate channel; `rows_csv` and the histogram (any of hist_csv,
/// hist_column, quantiles) on the per-replica one.  Every file opens
/// (or, for the histogram, is probed) at construction, so an unwritable
/// path fails before any work runs.  The one-shot CLI and serve mode
/// both build their sinks here; serve passes summary_out = nullptr so
/// its stdout carries records only.
class SpecSinks {
 public:
  SpecSinks(const ExperimentSpec& spec, std::ostream* summary_out);
  SpecSinks(const SpecSinks&) = delete;
  SpecSinks& operator=(const SpecSinks&) = delete;

  /// Aggregate-channel sinks; callers may add their own (a table).
  std::vector<RowSink*> sinks;
  /// Per-replica-channel sinks.
  std::vector<RowSink*> row_sinks;

 private:
  std::optional<CsvSink> csv_;
  std::optional<CsvSink> rows_csv_;
  std::optional<HistogramSink> histogram_;
};

/// Convenience wrapper: renders a markdown table of the aggregate rows
/// to stdout (unless spec.print_table is false), writes spec.csv_path
/// and spec.rows_csv_path if set, and -- when spec.metrics_json_path /
/// spec.trace_json_path are set -- collects metrics and writes the run
/// report and Chrome trace files.  An interrupted batch (see
/// RunContext::cancel) still flushes its sinks and writes the report
/// with "interrupted": true.
BatchResult run_experiment_with_default_sinks(const ExperimentSpec& spec);
BatchResult run_experiment_with_default_sinks(const ExperimentSpec& spec,
                                              const RunContext& context);

}  // namespace engine
}  // namespace opindyn

#endif  // OPINDYN_ENGINE_RUNNER_H
