// The common Runner interface behind the `opindyn` CLI.  A Scenario
// receives one fully-resolved work item ("cell": spec + graph + initial
// opinions + the batch-wide cell scheduler) and runs in two phases:
//
//   1. start(input) submits the cell's replica batches to the shared
//      CellScheduler and returns *without blocking*; the runner calls
//      start for every cell of the sweep grid up front, so all
//      (cell x replica) units are in flight on one thread pool at once.
//   2. The returned CellFold, invoked later in strict cell order, blocks
//      on the cell's batches, folds them, and formats the result rows.
//
// A scenario produces aggregate rows (width columns()) and may also
// stream per-replica rows (width row_columns()) for tail / histogram /
// trajectory workloads, formatted straight into byte blocks (see
// support/row_block.h and RunInput::rows).  Scenarios self-register in
// the ScenarioRegistry via OPINDYN_REGISTER_SCENARIO, so the batch
// runner and the CLI discover them by name.
#ifndef OPINDYN_ENGINE_SCENARIO_H
#define OPINDYN_ENGINE_SCENARIO_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/engine/experiment_spec.h"
#include "src/graph/graph.h"
#include "src/spectral/spectrum_cache.h"
#include "src/support/cell_scheduler.h"
#include "src/support/metrics.h"

namespace opindyn {
namespace engine {

/// Everything a scenario needs to run one grid cell.  The runner keeps
/// the referenced objects alive until every unit of the batch has run
/// and its fold has been invoked, so batch bodies may capture them.
struct RunInput {
  const ExperimentSpec& spec;
  const Graph& graph;
  const std::vector<double>& initial;
  /// Memoised eigensolves of `graph`, shared across every cell of the
  /// sweep that resolves to the same graph (see SpectrumCache): call
  /// spectra.walk() / spectra.laplacian() for eigenvalues and
  /// spectra.walk_f2() / spectra.laplacian_f2() for f_2 instead of
  /// running lazy_walk_spectrum / laplacian_spectrum directly, and the
  /// whole batch performs one eigensolve per distinct graph and kind.
  /// Declare what you read in Scenario::reads_spectra (f_2 included) so
  /// it is solved up front.
  const GraphSpectra& spectra;
  CellScheduler& scheduler;
  /// The cell's per-replica row channel, or nullptr when no consumer
  /// wants it; streaming scenarios skip formatting replica rows then,
  /// so a plain aggregate run never pays for them.  Rows formed inside
  /// replica units stream by passing it to CellScheduler::submit_groups
  /// (one streaming batch per cell: its replica r is the cell's block r);
  /// rows formed in the fold go through rows->emitter() into
  /// CellRows::replica.
  const RowStream* rows = nullptr;
  /// Observability sink for the batch, or nullptr when disabled.  Most
  /// scenarios never touch it: the scheduler already records unit spans
  /// and attributes metrics::count bumps to the cell, so this is only
  /// for scenarios that want extra spans or main-thread timings.
  MetricsRegistry* metrics = nullptr;
};

/// What one cell's fold produces.
struct CellRows {
  /// Aggregate result rows; each must have columns().size() cells.  Most
  /// scenarios return a single row; comparison scenarios return one row
  /// per contending protocol.
  std::vector<std::vector<std::string>> aggregate;
  /// Per-replica rows formed in the fold, from RunInput::rows->emitter()
  /// (so each has the cell's prefix and row_columns().size() cells);
  /// they follow the blocks the cell's units streamed.  Empty for
  /// scenarios that only aggregate or stream from their units.
  RowBlock replica;
};

/// Deferred second phase of a cell: blocks on the cell's batches and
/// formats rows.  Invoked by the runner in cell order on its own thread.
using CellFold = std::function<CellRows()>;

class Scenario {
 public:
  virtual ~Scenario() = default;

  /// Registry key, e.g. "node_vs_edge".
  virtual std::string name() const = 0;
  /// One-line description shown by `opindyn list`.
  virtual std::string description() const = 0;
  /// Aggregate result columns this scenario appends after the runner's
  /// base and sweep-label columns.
  virtual std::vector<std::string> columns() const = 0;
  /// Streamed per-replica row columns; empty (the default) declares that
  /// this scenario does not stream rows.
  virtual std::vector<std::string> row_columns() const { return {}; }
  /// The spectra of the cell's graph that start()'s units read through
  /// RunInput::spectra; none by default.  The runner queues one unit per
  /// distinct graph that solves them ahead of every cell's units, so
  /// distinct graphs solve concurrently and the units hit the memo.  A
  /// spectrum read without being declared still works, but solves late,
  /// serialised behind the first unit that asks, and shows up in
  /// BatchResult::spectra_late_solves.
  virtual SpectrumNeeds reads_spectra() const { return {}; }
  /// Throws a one-line std::runtime_error if grid cell `cell` (the spec
  /// with its sweep overrides applied) cannot run.  validate_spec calls
  /// it for every cell before any output file opens; accepts all by
  /// default.
  virtual void validate(const ExperimentSpec& cell) const { (void)cell; }

  /// Phase 1: submit the cell's replica batches (non-blocking) and
  /// return the fold that formats its rows.
  virtual CellFold start(const RunInput& input) const = 0;
};

class ScenarioRegistry {
 public:
  /// The process-wide registry (built-in scenarios are registered before
  /// main via their OPINDYN_REGISTER_SCENARIO registrars).
  static ScenarioRegistry& instance();

  /// Throws std::runtime_error on duplicate names.
  void add(std::unique_ptr<Scenario> scenario);

  bool contains(const std::string& name) const;

  /// Throws std::runtime_error suggesting near-match names (and naming
  /// the known scenarios) if absent.
  const Scenario& get(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

 private:
  std::map<std::string, std::unique_ptr<Scenario>> scenarios_;
};

/// Registers a scenario at static-initialisation time.
class ScenarioRegistrar {
 public:
  explicit ScenarioRegistrar(std::unique_ptr<Scenario> scenario);
};

#define OPINDYN_REGISTER_SCENARIO(ClassName)                      \
  const ::opindyn::engine::ScenarioRegistrar registrar_##ClassName{ \
      std::make_unique<ClassName>()};

/// Registers one configured instance of a scenario class that serves
/// several names (e.g. the forced-kind registrations of cross_model):
/// `Id` names the registrar and the remaining arguments go to the
/// constructor, whose first argument is the registered name.
#define OPINDYN_REGISTER_SCENARIO_AS(Id, ClassName, ...)         \
  const ::opindyn::engine::ScenarioRegistrar registrar_##Id{     \
      std::make_unique<ClassName>(__VA_ARGS__)};

/// Forces the translation unit holding the built-in scenario registrars
/// to be linked (a static library would otherwise drop it).  Idempotent;
/// called by the batch runner and the CLI.
void register_builtin_scenarios();

/// Same keep-alive hook for the paper-theorem scenarios
/// (scenarios_paper.cpp: duality, martingale, qchain, the variance and
/// lower-bound suites).  Called by register_builtin_scenarios.
void register_paper_scenarios();

}  // namespace engine
}  // namespace opindyn

#endif  // OPINDYN_ENGINE_SCENARIO_H
