#include "src/engine/experiment_spec.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "src/core/initial_values.h"
#include "src/graph/generators.h"
#include "src/spectral/spectra.h"

namespace opindyn {
namespace engine {
namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error(message);
}

std::int64_t parse_int(const std::string& key, const std::string& value) {
  return parse_int_value("spec key '" + key + "'", value);
}

double parse_double(const std::string& key, const std::string& value) {
  return parse_double_value("spec key '" + key + "'", value);
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1" || value == "yes") {
    return true;
  }
  if (value == "false" || value == "0" || value == "no") {
    return false;
  }
  fail("spec key '" + key + "': expected a boolean, got '" + value + "'");
}

std::string unknown_family(const std::string& family) {
  std::string known;
  for (const std::string& name : graph_family_names()) {
    known += known.empty() ? name : ", " + name;
  }
  return "unknown graph family '" + family + "' (known: " + known + ")";
}

/// The distributions build_initial draws, sorted.
constexpr const char* kDistributions[] = {
    "alternating", "blocks",     "constant", "f2_laplacian",
    "f2_walk",     "gaussian",   "hub_spike", "rademacher",
    "ramp",        "spike",      "uniform"};

std::string unknown_distribution(const std::string& distribution) {
  std::string known;
  for (const char* name : kDistributions) {
    known += known.empty() ? name : std::string(", ") + name;
  }
  return "unknown initial distribution '" + distribution + "' (known: " +
         known + ")";
}

SamplingMode parse_sampling(const std::string& value) {
  if (value == "without" || value == "without_replacement") {
    return SamplingMode::without_replacement;
  }
  if (value == "with" || value == "with_replacement") {
    return SamplingMode::with_replacement;
  }
  std::string message =
      "spec key 'sampling': expected without|with, got '" + value + "'";
  const std::vector<std::string> near = closest_matches(
      value, {"without", "without_replacement", "with", "with_replacement"});
  if (!near.empty()) {
    message += "; did you mean '" + near.front() + "'?";
  }
  fail(message);
}

std::string format_double(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

/// Applies one key=value pair to the spec.  Returns false if the key is
/// not part of the schema.
bool apply_key(ExperimentSpec& spec, const std::string& key,
               const std::string& value) {
  if (key == "scenario") {
    spec.scenario = value;
  } else if (key == "graph") {
    spec.graph.family = value;
  } else if (key == "n") {
    spec.graph.n = static_cast<NodeId>(parse_int(key, value));
  } else if (key == "degree") {
    spec.graph.degree = static_cast<NodeId>(parse_int(key, value));
  } else if (key == "attach") {
    spec.graph.attach = static_cast<NodeId>(parse_int(key, value));
  } else if (key == "p") {
    spec.graph.edge_probability = parse_double(key, value);
  } else if (key == "graph-seed") {
    spec.graph.seed = static_cast<std::uint64_t>(parse_int(key, value));
  } else if (key == "init") {
    spec.initial.distribution = value;
  } else if (key == "init-a") {
    spec.initial.param_a = parse_double(key, value);
  } else if (key == "init-b") {
    spec.initial.param_b = parse_double(key, value);
  } else if (key == "init-seed") {
    spec.initial.seed = static_cast<std::uint64_t>(parse_int(key, value));
  } else if (key == "center") {
    if (value != "plain" && value != "degree" && value != "none") {
      fail("spec key 'center': expected plain|degree|none, got '" + value +
           "'");
    }
    spec.initial.center = value;
  } else if (key == "model") {
    spec.model.kind = parse_model_kind(value);
  } else if (key == "alpha") {
    spec.model.alpha = parse_double(key, value);
  } else if (key == "confidence") {
    spec.model.confidence = parse_double(key, value);
  } else if (key == "k") {
    spec.model.k = parse_int(key, value);
  } else if (key == "lazy") {
    spec.model.lazy = parse_bool(key, value);
  } else if (key == "sampling") {
    spec.model.sampling = parse_sampling(value);
  } else if (key == "replicas") {
    spec.replicas = parse_int(key, value);
  } else if (key == "seed") {
    spec.seed = static_cast<std::uint64_t>(parse_int(key, value));
  } else if (key == "threads") {
    spec.threads = static_cast<std::size_t>(parse_int(key, value));
  } else if (key == "eps") {
    spec.convergence.epsilon = parse_double(key, value);
  } else if (key == "max-steps") {
    spec.convergence.max_steps = parse_int(key, value);
  } else if (key == "check-interval") {
    spec.convergence.check_interval = parse_int(key, value);
  } else if (key == "plain-potential") {
    spec.convergence.use_plain_potential = parse_bool(key, value);
  } else if (key == "horizon") {
    spec.horizon = parse_int(key, value);
  } else if (key == "sweep") {
    spec.sweeps = parse_sweeps(value);
  } else if (key == "csv") {
    spec.csv_path = value;
  } else if (key == "rows-csv") {
    spec.rows_csv_path = value;
  } else if (key == "hist-csv") {
    spec.hist_csv_path = value;
  } else if (key == "hist-column") {
    spec.hist_column = value;
  } else if (key == "hist-bins") {
    const std::int64_t bins = parse_int(key, value);
    if (bins < 1) {
      fail("spec key 'hist-bins': need at least 1 bin, got '" + value +
           "'");
    }
    spec.hist_bins = static_cast<std::size_t>(bins);
  } else if (key == "quantiles") {
    spec.quantiles = parse_quantiles(value);
  } else if (key == "metrics-json") {
    spec.metrics_json_path = value;
  } else if (key == "trace-json") {
    spec.trace_json_path = value;
  } else if (key == "table") {
    spec.print_table = parse_bool(key, value);
  } else {
    return false;
  }
  return true;
}

}  // namespace

Graph build_graph(const GraphSpec& spec) { return build_graph(spec, nullptr); }

Graph build_graph(const GraphSpec& spec, CellScheduler* workers) {
  Rng rng(spec.seed);
  const NodeId n = spec.n;
  const std::string& family = spec.family;
  if (family == "cycle") return gen::cycle(n);
  if (family == "path") return gen::path(n);
  if (family == "complete") return gen::complete(n);
  if (family == "star") return gen::star(n);
  if (family == "double_star") return gen::double_star((n - 2) / 2);
  if (family == "binary_tree") return gen::binary_tree(n);
  if (family == "petersen") return gen::petersen();
  if (family == "hypercube") {
    int d = 0;
    while ((NodeId{1} << (d + 1)) <= n) {
      ++d;
    }
    return gen::hypercube(d);
  }
  if (family == "torus") {
    NodeId side = 3;
    while ((side + 1) * (side + 1) <= n) {
      ++side;
    }
    return gen::torus(side, side);
  }
  if (family == "random_regular") {
    return gen::random_regular(rng, n, spec.degree, workers);
  }
  if (family == "random_regular_4") {
    return gen::random_regular(rng, n, 4, workers);
  }
  if (family == "erdos_renyi") {
    return gen::erdos_renyi_connected(rng, n, spec.edge_probability);
  }
  if (family == "pref_attach") {
    return gen::preferential_attachment(rng, n, spec.attach);
  }
  if (family == "barbell") return gen::barbell(n / 2, n - 2 * (n / 2));
  if (family == "lollipop") return gen::lollipop(n / 2, n - n / 2);
  fail(unknown_family(family));
}

std::string graph_spec_error(const GraphSpec& spec) {
  const std::string& family = spec.family;
  const std::vector<std::string> families = graph_family_names();
  if (std::find(families.begin(), families.end(), family) == families.end()) {
    return "'graph': " + unknown_family(family);
  }
  const std::int64_t n = spec.n;
  // The smallest n each generator accepts: a cycle needs 3 nodes, a
  // double star 2 leaves, random_regular_4 a fifth node, barbell and
  // lollipop a 3-clique, pref_attach its attach + 1 seed clique and one
  // more node; torus rounds up to 3x3 and petersen ignores n.
  std::int64_t min_n = 2;
  if (family == "cycle") {
    min_n = 3;
  } else if (family == "double_star") {
    min_n = 4;
  } else if (family == "random_regular_4") {
    min_n = 5;
  } else if (family == "barbell" || family == "lollipop") {
    min_n = 6;
  } else if (family == "pref_attach") {
    min_n = std::int64_t{spec.attach} + 2;
  } else if (family == "torus" || family == "petersen") {
    min_n = std::numeric_limits<std::int64_t>::min();
  }
  const std::int64_t degree = spec.degree;
  std::ostringstream bad;
  if (family == "pref_attach" && spec.attach < 1) {
    bad << "'attach': pref_attach needs attach >= 1, got " << spec.attach;
  } else if (n < min_n) {
    bad << "'n': " << family << " needs n >= " << min_n << ", got " << n;
  } else if (family == "hypercube" && n >= (std::int64_t{1} << 21)) {
    bad << "'n': hypercube needs n < 2^21 (dimension <= 20), got " << n;
  } else if (family == "random_regular" && !(degree >= 1 && degree < n)) {
    bad << "'degree': random_regular needs 1 <= degree < n = " << n
        << ", got " << degree;
  } else if (family == "random_regular" && n * degree % 2 != 0) {
    bad << "'degree': random_regular needs n * degree even, got n = " << n
        << ", degree = " << degree;
  } else if (family == "erdos_renyi" &&
             !(spec.edge_probability > 0.0 && spec.edge_probability <= 1.0)) {
    bad << "'p': erdos_renyi needs p in (0, 1], got "
        << spec.edge_probability;
  }
  return bad.str();
}

std::vector<std::string> graph_family_names() {
  return {"barbell",        "binary_tree", "complete",
          "cycle",          "double_star", "erdos_renyi",
          "hypercube",      "lollipop",    "path",
          "petersen",       "pref_attach", "random_regular",
          "random_regular_4", "star",      "torus"};
}

std::vector<double> build_initial(const InitialSpec& spec,
                                  const Graph& graph,
                                  const GraphSpectra* spectra) {
  Rng rng(spec.seed);
  const NodeId n = graph.node_count();
  std::vector<double> xi;
  if (spec.distribution == "constant") {
    xi = initial::constant(n, spec.param_a);
  } else if (spec.distribution == "uniform") {
    xi = initial::uniform(rng, n, spec.param_a, spec.param_b);
  } else if (spec.distribution == "gaussian") {
    xi = initial::gaussian(rng, n, spec.param_a, spec.param_b);
  } else if (spec.distribution == "rademacher") {
    xi = initial::rademacher(rng, n);
  } else if (spec.distribution == "spike") {
    xi = initial::spike(n, 0, spec.param_a == 0.0 ? 1.0 : spec.param_a);
  } else if (spec.distribution == "hub_spike") {
    // Spike on the highest-degree node: on irregular graphs this drives
    // Avg(0) and the degree-weighted M(0) apart (the Thm 2.4(2) setup).
    NodeId hub = 0;
    for (NodeId u = 1; u < n; ++u) {
      if (graph.degree(u) > graph.degree(hub)) {
        hub = u;
      }
    }
    xi = initial::spike(
        n, hub,
        spec.param_a == 0.0 ? static_cast<double>(n) : spec.param_a);
  } else if (spec.distribution == "alternating") {
    xi = initial::alternating(n);
  } else if (spec.distribution == "blocks") {
    xi = initial::blocks(n, spec.param_a == 0.0 ? 1.0 : spec.param_a);
  } else if (spec.distribution == "ramp") {
    xi = initial::ramp(n, spec.param_a == 0.0 ? 1.0 : spec.param_a);
  } else if (spec.distribution == "f2_walk") {
    // Prop. B.2 adversarial state beta * f2(P) of the lazy walk matrix;
    // the memoised record (when given) and the direct solve produce the
    // identical deterministic eigenvector.
    xi = initial::scaled_eigenvector(
        spectra != nullptr ? spectra->walk_f2()
                           : lazy_walk_spectrum(graph).f2,
        spec.param_a == 0.0 ? static_cast<double>(n) : spec.param_a);
  } else if (spec.distribution == "f2_laplacian") {
    xi = initial::scaled_eigenvector(
        spectra != nullptr ? spectra->laplacian_f2()
                           : laplacian_spectrum(graph).f2,
        spec.param_a == 0.0 ? static_cast<double>(n) : spec.param_a);
  } else {
    fail(unknown_distribution(spec.distribution));
  }
  if (spec.center == "plain") {
    initial::center_plain(xi);
  } else if (spec.center == "degree") {
    initial::center_degree_weighted(graph, xi);
  } else if (spec.center != "none") {
    fail("unknown centering '" + spec.center + "'");
  }
  return xi;
}

std::string initial_spec_error(const InitialSpec& spec) {
  const std::string& name = spec.distribution;
  if (std::find(std::begin(kDistributions), std::end(kDistributions),
                name) == std::end(kDistributions)) {
    return "'init': " + unknown_distribution(name);
  }
  std::ostringstream bad;
  if ((name == "ramp" || name == "blocks") && !(spec.param_a >= 0.0)) {
    bad << "'init-a': " << name
        << " needs a magnitude > 0 (0 means 1), got " << spec.param_a;
  } else if (name == "gaussian" && !(spec.param_b >= 0.0)) {
    bad << "'init-b': gaussian needs a stddev >= 0, got " << spec.param_b;
  } else if (name == "uniform" && !(spec.param_b >= spec.param_a)) {
    bad << "'init-b': uniform needs hi >= lo = init-a = " << spec.param_a
        << ", got " << spec.param_b;
  }
  return bad.str();
}

SpectrumNeeds initial_reads_spectra(const InitialSpec& spec) {
  const bool walk = spec.distribution == "f2_walk";
  const bool laplacian = spec.distribution == "f2_laplacian";
  return {walk, laplacian, walk, laplacian};
}

std::string graph_cache_key(const GraphSpec& spec) {
  // Every field that build_graph reads for some family is part of the
  // key; irrelevant fields for the requested family cost at most a
  // harmless duplicate build.
  std::ostringstream key;
  key << spec.family << ";n=" << spec.n << ";degree=" << spec.degree
      << ";attach=" << spec.attach
      << ";p=" << format_double(spec.edge_probability)
      << ";seed=" << spec.seed;
  return key.str();
}

std::vector<std::string> spec_keys() {
  return {"scenario",  "graph",     "n",
          "degree",    "attach",    "p",
          "graph-seed", "init",     "init-a",
          "init-b",    "init-seed", "center",
          "model",     "alpha",     "confidence",
          "k",         "lazy",
          "sampling",  "replicas",  "seed",
          "threads",   "eps",       "max-steps",
          "check-interval", "plain-potential", "horizon",
          "sweep",     "csv",       "rows-csv",
          "hist-csv",  "hist-column", "hist-bins",
          "quantiles", "metrics-json", "trace-json",
          "table"};
}

std::vector<double> parse_quantiles(const std::string& clause) {
  std::vector<double> quantiles;
  std::istringstream stream(clause);
  std::string value;
  while (std::getline(stream, value, ',')) {
    if (value.empty()) {
      continue;
    }
    const double q = parse_double("quantiles", value);
    if (q < 0.0 || q > 1.0) {
      fail("spec key 'quantiles': quantile " + value +
           " outside [0, 1]");
    }
    quantiles.push_back(q);
  }
  if (quantiles.empty()) {
    fail("spec key 'quantiles': expected q1,q2,... in [0, 1], got '" +
         clause + "'");
  }
  return quantiles;
}

ExperimentSpec parse_spec(const std::map<std::string, std::string>& kv) {
  ExperimentSpec spec;
  for (const auto& [key, value] : kv) {
    if (!apply_key(spec, key, value)) {
      fail("unknown spec key '" + key + "'");
    }
  }
  return spec;
}

ExperimentSpec parse_spec(const CliArgs& args) {
  ExperimentSpec spec;
  if (args.has("spec")) {
    spec = parse_spec_file(args.get("spec", std::string{}));
  }
  for (const std::string& key : spec_keys()) {
    if (args.has(key)) {
      apply_key(spec, key, args.get(key, std::string{}));
    }
  }
  return spec;
}

ExperimentSpec parse_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    fail("cannot open spec file '" + path + "'");
  }
  // Lines are applied one at a time (last duplicate wins, like the map
  // the parser used to collect) so every diagnostic -- unknown key,
  // malformed or out-of-range value -- can cite the offending line.
  ExperimentSpec spec;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.erase(hash);
    }
    // Trim whitespace.
    const auto is_space = [](unsigned char c) { return std::isspace(c); };
    line.erase(line.begin(),
               std::find_if_not(line.begin(), line.end(), is_space));
    line.erase(std::find_if_not(line.rbegin(), line.rend(), is_space).base(),
               line.end());
    if (line.empty()) {
      continue;
    }
    const std::string at = path + ":" + std::to_string(line_number) + ": ";
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos || eq == 0) {
      fail(at + "expected key=value, got '" + line + "'");
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    try {
      if (!apply_key(spec, key, value)) {
        fail("unknown spec key '" + key + "'");
      }
    } catch (const std::runtime_error& error) {
      fail(at + error.what());
    }
  }
  return spec;
}

std::string to_key_values(const ExperimentSpec& spec) {
  std::ostringstream out;
  out << "scenario=" << spec.scenario << "\n";
  out << "graph=" << spec.graph.family << "\n";
  out << "n=" << spec.graph.n << "\n";
  out << "degree=" << spec.graph.degree << "\n";
  out << "attach=" << spec.graph.attach << "\n";
  out << "p=" << format_double(spec.graph.edge_probability) << "\n";
  out << "graph-seed=" << spec.graph.seed << "\n";
  out << "init=" << spec.initial.distribution << "\n";
  out << "init-a=" << format_double(spec.initial.param_a) << "\n";
  out << "init-b=" << format_double(spec.initial.param_b) << "\n";
  out << "init-seed=" << spec.initial.seed << "\n";
  out << "center=" << spec.initial.center << "\n";
  out << "model=" << model_kind_name(spec.model.kind) << "\n";
  out << "alpha=" << format_double(spec.model.alpha) << "\n";
  out << "confidence=" << format_double(spec.model.confidence) << "\n";
  out << "k=" << spec.model.k << "\n";
  out << "lazy=" << (spec.model.lazy ? "true" : "false") << "\n";
  out << "sampling="
      << (spec.model.sampling == SamplingMode::without_replacement
              ? "without"
              : "with")
      << "\n";
  out << "replicas=" << spec.replicas << "\n";
  out << "seed=" << spec.seed << "\n";
  out << "threads=" << spec.threads << "\n";
  out << "eps=" << format_double(spec.convergence.epsilon) << "\n";
  out << "max-steps=" << spec.convergence.max_steps << "\n";
  out << "check-interval=" << spec.convergence.check_interval << "\n";
  out << "plain-potential="
      << (spec.convergence.use_plain_potential ? "true" : "false") << "\n";
  out << "horizon=" << spec.horizon << "\n";
  if (!spec.sweeps.empty()) {
    out << "sweep=" << format_sweeps(spec.sweeps) << "\n";
  }
  if (!spec.csv_path.empty()) {
    out << "csv=" << spec.csv_path << "\n";
  }
  if (!spec.rows_csv_path.empty()) {
    out << "rows-csv=" << spec.rows_csv_path << "\n";
  }
  if (!spec.hist_csv_path.empty()) {
    out << "hist-csv=" << spec.hist_csv_path << "\n";
  }
  if (!spec.hist_column.empty()) {
    out << "hist-column=" << spec.hist_column << "\n";
  }
  out << "hist-bins=" << spec.hist_bins << "\n";
  if (!spec.quantiles.empty()) {
    out << "quantiles=";
    for (std::size_t i = 0; i < spec.quantiles.size(); ++i) {
      out << (i > 0 ? "," : "") << format_double(spec.quantiles[i]);
    }
    out << "\n";
  }
  if (!spec.metrics_json_path.empty()) {
    out << "metrics-json=" << spec.metrics_json_path << "\n";
  }
  if (!spec.trace_json_path.empty()) {
    out << "trace-json=" << spec.trace_json_path << "\n";
  }
  out << "table=" << (spec.print_table ? "true" : "false") << "\n";
  return out.str();
}

void apply_override(ExperimentSpec& spec, const std::string& key,
                    const std::string& value) {
  // Output and orchestration keys are fixed per experiment: sweeping them
  // would change how rows are collected, not what is measured.
  if (key == "scenario" || key == "sweep" || key == "csv" ||
      key == "rows-csv" || key == "hist-csv" || key == "hist-column" ||
      key == "hist-bins" || key == "quantiles" || key == "table" ||
      key == "metrics-json" || key == "trace-json" ||
      key == "threads" || key == "replicas" || key == "seed") {
    fail("spec key '" + key + "' cannot be swept");
  }
  if (!apply_key(spec, key, value)) {
    fail("unknown sweep key '" + key + "'");
  }
}

std::vector<SweepAxis> parse_sweeps(const std::string& clause) {
  std::vector<SweepAxis> axes;
  std::istringstream stream(clause);
  std::string axis_text;
  while (std::getline(stream, axis_text, ';')) {
    if (axis_text.empty()) {
      continue;
    }
    const std::size_t colon = axis_text.find(':');
    if (colon == std::string::npos) {
      fail("sweep axis '" + axis_text + "': expected key:v1,v2,...");
    }
    SweepAxis axis;
    axis.key = axis_text.substr(0, colon);
    std::istringstream values(axis_text.substr(colon + 1));
    std::string value;
    while (std::getline(values, value, ',')) {
      if (!value.empty()) {
        axis.values.push_back(value);
      }
    }
    if (axis.key.empty() || axis.values.empty()) {
      fail("sweep axis '" + axis_text + "': expected key:v1,v2,...");
    }
    axes.push_back(std::move(axis));
  }
  return axes;
}

std::string format_sweeps(const std::vector<SweepAxis>& sweeps) {
  std::string out;
  for (const SweepAxis& axis : sweeps) {
    if (!out.empty()) {
      out += ';';
    }
    out += axis.key + ':';
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      out += axis.values[i];
    }
  }
  return out;
}

}  // namespace engine
}  // namespace opindyn
