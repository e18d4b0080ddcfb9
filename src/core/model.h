// The one configuration record for every dynamics rule in the repo and
// the factory that instantiates any of them behind the common
// AveragingProcess interface.  Every harness -- the scenario engine, the
// bench shims, the tests -- describes "which model with which knobs"
// through this struct; replica scheduling itself lives in
// support/cell_scheduler.h (the historical core/montecarlo harness that
// used to bundle both is retired).
//
// Two of the kinds are the paper's processes (node, edge); the other six
// are the comparison rules the price-of-simplicity discussion measures
// against: classical voter and pairwise gossip, synchronous DeGroot and
// Friedkin-Johnsen, the weighted-median mechanism (arXiv:1909.06474) and
// confidence-bounded Hegselmann-Krause updates (arXiv:1910.14465).
#ifndef OPINDYN_CORE_MODEL_H
#define OPINDYN_CORE_MODEL_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/edge_model.h"
#include "src/core/node_model.h"
#include "src/core/process.h"
#include "src/graph/graph.h"

namespace opindyn {

enum class ModelKind {
  node,               // Definition 2.1 (k-neighbour mean)
  edge,               // Definition 2.3 (directed-arc pull)
  voter,              // classical voter: copy one neighbour's opinion
  gossip,             // pairwise gossip: both endpoints -> their mean
  degroot,            // synchronous DeGroot rounds
  friedkin_johnsen,   // synchronous FJ rounds with stubbornness
  weighted_median,    // median of a k-sample (arXiv:1909.06474)
  hegselmann_krause,  // confidence-bounded averaging (arXiv:1910.14465)
};

/// One configuration of any model.  Each kind honours a subset of the
/// knobs (see validate_model_config); make_process rejects non-default
/// values of knobs the kind ignores, so no setting is dropped silently.
struct ModelConfig {
  ModelKind kind = ModelKind::node;
  double alpha = 0.5;
  std::int64_t k = 1;
  bool lazy = false;
  SamplingMode sampling = SamplingMode::without_replacement;
  /// Hegselmann-Krause confidence bound (must be set > 0 for that kind;
  /// meaningless -- and rejected -- everywhere else).
  double confidence = 0.0;
};

/// Canonical spelling of a kind ("node", "edge", "voter", ...).
std::string model_kind_name(ModelKind kind);

/// Every legal `model=` spelling, in enum order.
const std::vector<std::string>& model_kind_names();

/// Parses a `model=` spec value; unknown names throw with edit-distance
/// "did you mean" suggestions.
ModelKind parse_model_kind(const std::string& value);

/// Rejects configurations where a non-default knob would be silently
/// ignored by `config.kind` (e.g. k=/sampling= on edge, alpha= on
/// voter/gossip/weighted_median) with a one-line std::runtime_error.
/// Also enforces per-kind requirements (hegselmann_krause needs
/// confidence > 0).  make_process calls this; harnesses that want the
/// error before spawning replicas can call it early themselves.
void validate_model_config(const ModelConfig& config);

/// Returns `config` restricted to kind `kind`: the kind is forced and
/// every knob that kind ignores is reset to its default.  This is how
/// the cross-model comparison scenarios reuse one user config across
/// rule families without tripping validate_model_config.
ModelConfig config_for_kind(const ModelConfig& config, ModelKind kind);

/// Builds the configured process over `graph` starting from `initial`.
/// Throws (via validate_model_config) on contradictory knob settings.
std::unique_ptr<AveragingProcess> make_process(
    const Graph& graph, const ModelConfig& config,
    std::vector<double> initial);

/// The lane shape (core/lane_kernel.h) of the process make_process
/// would build for `config` over `graph`, without building it.
LaneShape lane_shape(const ModelConfig& config, const Graph& graph);

}  // namespace opindyn

#endif  // OPINDYN_CORE_MODEL_H
