// Declarative description of one experiment: which scenario to run, over
// which graph, from which initial opinions, with which model parameters,
// and which axes to sweep.  A spec is a flat set of key=value pairs, so
// the same schema parses from CLI flags (`--n=1024`), from a spec file
// (one `key=value` per line, `#` comments), and round-trips through
// `to_key_values` for provenance logging.
#ifndef OPINDYN_ENGINE_EXPERIMENT_SPEC_H
#define OPINDYN_ENGINE_EXPERIMENT_SPEC_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/convergence.h"
#include "src/core/model.h"
#include "src/graph/graph.h"
#include "src/spectral/spectrum_cache.h"
#include "src/support/cli.h"
#include "src/support/rng.h"

namespace opindyn {

class CellScheduler;

namespace engine {

/// Which graph to build.  `family` is one of the names accepted by
/// `build_graph`; the auxiliary parameters are only read by the families
/// that need them.
struct GraphSpec {
  std::string family = "cycle";
  NodeId n = 64;
  /// Degree for random_regular.
  NodeId degree = 4;
  /// Edges per new node for preferential attachment.
  NodeId attach = 2;
  /// Edge probability for erdos_renyi.
  double edge_probability = 0.1;
  /// Seed for the randomised families.
  std::uint64_t seed = 4242;
};

/// Builds one of the named graph families:
/// cycle, path, complete, star, double_star, binary_tree, hypercube
/// (largest Q_d with 2^d <= n), torus (largest square <= n), petersen,
/// random_regular, erdos_renyi, pref_attach, barbell, lollipop.
/// Throws std::runtime_error for unknown families.
Graph build_graph(const GraphSpec& spec);

/// build_graph with `workers`' idle pool workers helping the randomised
/// families that search (random_regular); the graph is the same.
Graph build_graph(const GraphSpec& spec, CellScheduler* workers);

/// Names accepted by `build_graph`, sorted.
std::vector<std::string> graph_family_names();

/// Which initial opinion vector xi(0) to draw.
struct InitialSpec {
  /// constant | uniform | gaussian | rademacher | spike | hub_spike |
  /// alternating | blocks | ramp | f2_walk | f2_laplacian.
  /// hub_spike places the spike on the highest-degree node (so Avg(0)
  /// and the degree-weighted M(0) differ on irregular graphs, the
  /// Thm 2.4(2) setup); f2_walk / f2_laplacian are the Prop. B.2
  /// adversarial eigenvector states beta * f2 of the lazy walk matrix /
  /// Laplacian.
  std::string distribution = "rademacher";
  /// First parameter: constant value, uniform lo, gaussian mean,
  /// spike/blocks/ramp magnitude, f2_* scale beta (0 = n).
  double param_a = 0.0;
  /// Second parameter: uniform hi, gaussian stddev.
  double param_b = 1.0;
  std::uint64_t seed = 3;
  /// plain (Avg = 0) | degree (M = 0) | none.
  std::string center = "plain";
};

/// Draws xi(0) per the spec (and applies the requested centering).
/// Throws std::runtime_error for unknown distributions or centerings.
/// The f2_walk / f2_laplacian eigenvector states take their eigensolve
/// from `spectra` when one is passed (the engine passes the batch-wide
/// SpectrumCache record, so a sweep solves once per distinct graph);
/// with nullptr they solve directly -- same values either way.
std::vector<double> build_initial(const InitialSpec& spec,
                                  const Graph& graph,
                                  const GraphSpectra* spectra = nullptr);

/// The spectra build_initial reads for `spec`: f_2 of the walk spectrum
/// for f2_walk (walk + walk_f2), f_2 of the Laplacian for f2_laplacian
/// (laplacian + laplacian_f2), none otherwise.
/// The runner solves them in its prefetch pass, before drawing the state.
SpectrumNeeds initial_reads_spectra(const InitialSpec& spec);

/// One sweep axis: the spec key to override and the values to try.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

struct ExperimentSpec {
  std::string scenario = "node";
  GraphSpec graph;
  InitialSpec initial;
  /// model (the dynamics rule) plus its knobs: alpha / k / lazy /
  /// sampling / confidence.  Single-model scenarios force
  /// `kind` to their own rule via config_for_kind; the cross-model
  /// scenarios honour `model=` verbatim, which makes it a sweep axis.
  ModelConfig model;
  std::int64_t replicas = 100;
  std::uint64_t seed = 1;
  /// Worker threads for cell x replica scheduling; 0 = hardware
  /// concurrency.  Results are bit-identical for every value (see
  /// CellScheduler).
  std::size_t threads = 0;
  ConvergenceOptions convergence;
  /// Fixed step horizon for trajectory-style scenarios (rows are emitted
  /// every convergence.check_interval steps up to here); 0 picks 16n.
  std::int64_t horizon = 0;
  std::vector<SweepAxis> sweeps;
  /// Optional CSV output path for aggregate rows ("" = no CSV).
  std::string csv_path;
  /// Optional CSV output path for streamed per-replica rows ("" = none;
  /// only scenarios with row_columns() produce any).
  std::string rows_csv_path;
  /// Optional CSV output path for a histogram over one numeric column of
  /// the streamed per-replica channel ("" = none).  Requires a scenario
  /// with row_columns().
  std::string hist_csv_path;
  /// Which streamed column the histogram/quantile summarizer bins; "" =
  /// the last row column (the interesting metric by convention).
  std::string hist_column;
  /// Bin count for the histogram sink.
  std::size_t hist_bins = 20;
  /// Quantiles (each in [0,1]) summarized over the selected streamed
  /// column; empty = no quantile summary.  Quantiles are exact order
  /// statistics of the streamed values, printed on stdout (and they
  /// activate the row channel just like hist-csv / rows-csv do).
  std::vector<double> quantiles;
  /// Optional run-report output path ("" = none): a JSON manifest of
  /// the run (spec echo, build info, counters, per-cell timing table,
  /// steps/sec, peak RSS; see engine/run_report.h).  Setting it enables
  /// metrics collection for the batch.
  std::string metrics_json_path;
  /// Optional Chrome trace-event output path ("" = none), viewable in
  /// Perfetto / chrome://tracing.  Also enables metrics collection.
  std::string trace_json_path;
  /// Print the markdown table to stdout.
  bool print_table = true;
};

/// The flat key set of the spec schema (also the accepted CLI flags):
/// scenario, graph, n, degree, attach, p, graph-seed, init, init-a,
/// init-b, init-seed, center, model, alpha, confidence, k, lazy,
/// sampling, replicas, seed, threads, eps, max-steps, check-interval,
/// plain-potential, horizon, sweep, csv, rows-csv, hist-csv,
/// hist-column, hist-bins, quantiles, metrics-json, trace-json, table.
std::vector<std::string> spec_keys();

/// Parses a comma-separated quantile list ("0.5,0.9,0.99"); every value
/// must be in [0,1].  Throws std::runtime_error otherwise.
std::vector<double> parse_quantiles(const std::string& clause);

/// Canonical cache key of a GraphSpec: two specs build the identical
/// graph iff their keys are equal, so a sweep over model parameters
/// shares one immutable Graph across cells (see GraphCache).
std::string graph_cache_key(const GraphSpec& spec);

/// Parses a spec from flat key=value pairs.  Unknown keys and malformed
/// values throw std::runtime_error.
ExperimentSpec parse_spec(const std::map<std::string, std::string>& kv);

/// Parses the known spec keys out of CLI flags.  If `--spec=<path>` is
/// present the file is loaded first and the remaining flags override it.
ExperimentSpec parse_spec(const CliArgs& args);

/// Parses a spec file: one key=value per line, blank lines and `#`
/// comments ignored.  Malformed lines -- unknown keys, non-numeric or
/// out-of-range values, missing '=' -- throw std::runtime_error with a
/// "path:line: ..." diagnostic naming the offending key, never an
/// uncaught std::invalid_argument.  Duplicate keys: the last line wins.
ExperimentSpec parse_spec_file(const std::string& path);

/// Serialises the spec as one `key=value` per line (doubles at full
/// precision), such that parse_spec(parse of the output) reproduces the
/// spec exactly.
std::string to_key_values(const ExperimentSpec& spec);

/// Applies one sweep override (e.g. key="k", value="4") in place.
/// Accepts the graph/model/initial/convergence keys of the schema;
/// throws std::runtime_error for keys that cannot be swept.
void apply_override(ExperimentSpec& spec, const std::string& key,
                    const std::string& value);

/// Parses a sweep clause "k:1,2,4;alpha:0.3,0.5" into axes.
std::vector<SweepAxis> parse_sweeps(const std::string& clause);

/// Inverse of parse_sweeps.
std::string format_sweeps(const std::vector<SweepAxis>& sweeps);

}  // namespace engine
}  // namespace opindyn

#endif  // OPINDYN_ENGINE_EXPERIMENT_SPEC_H
