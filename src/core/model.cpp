#include "src/core/model.h"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/core/degroot.h"
#include "src/core/friedkin_johnsen.h"
#include "src/core/gossip_model.h"
#include "src/core/hegselmann_krause_model.h"
#include "src/core/voter_model.h"
#include "src/core/weighted_median_model.h"
#include "src/support/cli.h"

namespace opindyn {
namespace {

struct KnobSet {
  bool alpha = false;
  bool k = false;
  bool lazy = false;
  bool sampling = false;
  bool confidence = false;
};

/// Which knobs each kind honours; anything else set to a non-default
/// value is rejected by validate_model_config.
KnobSet knobs_for(ModelKind kind) {
  switch (kind) {
    case ModelKind::node:
      return {/*alpha=*/true, /*k=*/true, /*lazy=*/true, /*sampling=*/true,
              /*confidence=*/false};
    case ModelKind::edge:
      return {/*alpha=*/true, /*k=*/false, /*lazy=*/true,
              /*sampling=*/false, /*confidence=*/false};
    case ModelKind::voter:
    case ModelKind::gossip:
    case ModelKind::degroot:
      return {/*alpha=*/false, /*k=*/false, /*lazy=*/true,
              /*sampling=*/false, /*confidence=*/false};
    case ModelKind::friedkin_johnsen:
      return {/*alpha=*/true, /*k=*/false, /*lazy=*/false,
              /*sampling=*/false, /*confidence=*/false};
    case ModelKind::weighted_median:
      return {/*alpha=*/false, /*k=*/true, /*lazy=*/true, /*sampling=*/true,
              /*confidence=*/false};
    case ModelKind::hegselmann_krause:
      return {/*alpha=*/false, /*k=*/false, /*lazy=*/true,
              /*sampling=*/false, /*confidence=*/true};
  }
  throw std::runtime_error("unknown ModelKind");
}

NodeModelParams node_params(const ModelConfig& config) {
  NodeModelParams params;
  params.alpha = config.alpha;
  params.k = config.k;
  params.lazy = config.lazy;
  params.sampling = config.sampling;
  return params;
}

EdgeModelParams edge_params(const ModelConfig& config) {
  EdgeModelParams params;
  params.alpha = config.alpha;
  params.lazy = config.lazy;
  return params;
}

[[noreturn]] void reject_knob(ModelKind kind, const std::string& knob) {
  throw std::runtime_error("model '" + model_kind_name(kind) +
                           "' does not use " + knob +
                           "=; remove it or pick a model that does");
}

}  // namespace

std::string model_kind_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::node:
      return "node";
    case ModelKind::edge:
      return "edge";
    case ModelKind::voter:
      return "voter";
    case ModelKind::gossip:
      return "gossip";
    case ModelKind::degroot:
      return "degroot";
    case ModelKind::friedkin_johnsen:
      return "friedkin_johnsen";
    case ModelKind::weighted_median:
      return "weighted_median";
    case ModelKind::hegselmann_krause:
      return "hegselmann_krause";
  }
  throw std::runtime_error("unknown ModelKind");
}

const std::vector<std::string>& model_kind_names() {
  static const std::vector<std::string> names = {
      "node",   "edge",    "voter",           "gossip",
      "degroot", "friedkin_johnsen", "weighted_median",
      "hegselmann_krause"};
  return names;
}

ModelKind parse_model_kind(const std::string& value) {
  const std::vector<std::string>& names = model_kind_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (value == names[i]) {
      return static_cast<ModelKind>(i);
    }
  }
  std::ostringstream message;
  message << "unknown model '" << value << "'";
  const std::vector<std::string> near = closest_matches(value, names);
  if (!near.empty()) {
    message << "; did you mean '" << near.front() << "'?";
  }
  message << " (known:";
  for (const std::string& name : names) {
    message << ' ' << name;
  }
  message << ')';
  throw std::runtime_error(message.str());
}

void validate_model_config(const ModelConfig& config) {
  const ModelConfig defaults;
  const KnobSet allowed = knobs_for(config.kind);
  if (!allowed.alpha && config.alpha != defaults.alpha) {
    reject_knob(config.kind, "alpha");
  }
  if (!allowed.k && config.k != defaults.k) {
    reject_knob(config.kind, "k");
  }
  if (!allowed.lazy && config.lazy != defaults.lazy) {
    reject_knob(config.kind, "lazy");
  }
  if (!allowed.sampling && config.sampling != defaults.sampling) {
    reject_knob(config.kind, "sampling");
  }
  if (!allowed.confidence && config.confidence != defaults.confidence) {
    reject_knob(config.kind, "confidence");
  }
  if (config.kind == ModelKind::hegselmann_krause &&
      !(config.confidence > 0.0)) {
    throw std::runtime_error(
        "model 'hegselmann_krause' requires confidence= > 0");
  }
}

ModelConfig config_for_kind(const ModelConfig& config, ModelKind kind) {
  const ModelConfig defaults;
  const KnobSet allowed = knobs_for(kind);
  ModelConfig result = config;
  result.kind = kind;
  if (!allowed.alpha) {
    result.alpha = defaults.alpha;
  }
  if (!allowed.k) {
    result.k = defaults.k;
  }
  if (!allowed.lazy) {
    result.lazy = defaults.lazy;
  }
  if (!allowed.sampling) {
    result.sampling = defaults.sampling;
  }
  if (!allowed.confidence) {
    result.confidence = defaults.confidence;
  }
  return result;
}

std::unique_ptr<AveragingProcess> make_process(const Graph& graph,
                                               const ModelConfig& config,
                                               std::vector<double> initial) {
  validate_model_config(config);
  switch (config.kind) {
    case ModelKind::node:
      return std::make_unique<NodeModel>(graph, std::move(initial),
                                         node_params(config));
    case ModelKind::edge:
      return std::make_unique<EdgeModel>(graph, std::move(initial),
                                         edge_params(config));
    case ModelKind::voter:
      return std::make_unique<VoterModel>(graph, std::move(initial),
                                          config.lazy);
    case ModelKind::gossip:
      return std::make_unique<GossipModel>(graph, std::move(initial),
                                           config.lazy);
    case ModelKind::degroot:
      return std::make_unique<DeGrootModel>(graph, std::move(initial),
                                            config.lazy);
    case ModelKind::friedkin_johnsen:
      return std::make_unique<FriedkinJohnsenModel>(
          graph, std::move(initial), config.alpha);
    case ModelKind::weighted_median: {
      WeightedMedianParams params;
      params.k = config.k;
      params.lazy = config.lazy;
      params.sampling = config.sampling;
      return std::make_unique<WeightedMedianModel>(graph, std::move(initial),
                                                   params);
    }
    case ModelKind::hegselmann_krause:
      return std::make_unique<HegselmannKrauseModel>(
          graph, std::move(initial), config.confidence, config.lazy);
  }
  throw std::runtime_error("unknown ModelKind");
}

LaneShape lane_shape(const ModelConfig& config, const Graph& graph) {
  switch (config.kind) {
    case ModelKind::node:
      return NodeModel::lane_shape(graph, node_params(config));
    case ModelKind::edge:
      return EdgeModel::lane_shape(graph, edge_params(config));
    default:
      return {};
  }
}

}  // namespace opindyn
