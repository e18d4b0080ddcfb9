// The paper-theorem scenarios: engine ports of the formerly bespoke
// bench binaries (Fig. 1/4 duality, Lemma 4.1 martingale, Lemma 5.7
// q-chain, the Thm 2.2(2)/2.4 variance suites, Prop. 5.8, the
// Appendix-B bounds, Cor. E.2, and the Section 6 moment chains).  Each scenario follows the two-phase contract of
// scenario.h: start() submits its replica batches -- including the
// deterministic enumeration / eigensolve work, wrapped in one-replica
// batches so it runs on the pool -- and the returned fold formats rows
// in cell order.  The variance and convergence-time scenarios stream
// one row per replica (the raw F / T_eps samples), which is what the
// HistogramSink's `--hist-csv` / `--quantiles` summarize.
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/convergence.h"
#include "src/core/diffusion.h"
#include "src/core/initial_values.h"
#include "src/core/model.h"
#include "src/core/moments.h"
#include "src/core/qchain.h"
#include "src/core/selection.h"
#include "src/core/theory.h"
#include "src/engine/scenario.h"
#include "src/engine/scenario_format.h"
#include "src/engine/scenario_runs.h"
#include "src/graph/algorithms.h"
#include "src/graph/isoperimetric.h"
#include "src/spectral/spectra.h"

namespace opindyn {
namespace engine {
namespace {

/// "n/a" for NaN metric slots (e.g. a closed form that needs a regular
/// graph), otherwise the given formatter's output.
std::string sci_or_na(double value, int digits) {
  return std::isnan(value) ? "n/a" : fmt_sci(value, digits);
}

std::string fixed_or_na(double value, int digits) {
  return std::isnan(value) ? "n/a" : fmt_fixed(value, digits);
}

double plain_average(const std::vector<double>& xi) {
  double sum = 0.0;
  for (const double v : xi) {
    sum += v;
  }
  return sum / static_cast<double>(xi.size());
}

/// One averaging-model update applied out of place (the exact-expectation
/// helpers enumerate the selection distribution with this).
std::vector<double> apply_update(const std::vector<double>& xi,
                                 const NodeSelection& sel, double alpha) {
  std::vector<double> out = xi;
  double sum = 0.0;
  for (const NodeId v : sel.sample) {
    sum += xi[static_cast<std::size_t>(v)];
  }
  out[static_cast<std::size_t>(sel.node)] =
      alpha * xi[static_cast<std::size_t>(sel.node)] +
      (1.0 - alpha) * sum / static_cast<double>(sel.sample.size());
  return out;
}

/// Per-replica rows ["replica", metric] out of a finished batch, as one
/// block -- the streamed channel of the variance / convergence-time
/// scenarios.
RowBlock replica_rows(const RowStream& stream, ReplicaBatch& batch,
                      std::size_t metric, int digits, bool scientific) {
  RowEmitter rows = stream.emitter();
  for (std::int64_t r = 0; r < batch.replicas(); ++r) {
    const double v = batch.sample(r, metric);
    rows.row().integer(r);
    if (scientific) {
      rows.sci(v, digits);
    } else {
      rows.fixed(v, digits);
    }
  }
  return rows.take();
}

/// --- duality (Fig. 1 / Fig. 4 / Prop. 5.1) -------------------------

/// Runs the NodeModel forward on a recorded random selection sequence
/// and the Diffusion Process on the reversed sequence; Prop. 5.1 says
/// the end states agree exactly, so the per-replica max |xi(T) - W(T)|
/// must sit at machine precision for every replica.
class DualityScenario final : public Scenario {
 public:
  std::string name() const override { return "duality"; }
  std::string description() const override {
    return "Prop 5.1 duality (Figs 1/4): averaging forward on chi vs "
           "diffusion on reversed chi; max |xi(T)-W(T)| ~ 1e-16.  "
           "horizon = steps T (0 = 4n).";
  }
  std::vector<std::string> columns() const override {
    return {"steps", "max |xi-W|", "mean |xi-W|", "exact"};
  }
  std::vector<std::string> row_columns() const override {
    return {"replica", "max |xi-W|"};
  }
  CellFold start(const RunInput& in) const override {
    const std::int64_t steps =
        in.spec.horizon > 0 ? in.spec.horizon
                            : 4 * in.graph.node_count();
    const ModelConfig config =
        config_for_kind(in.spec.model, ModelKind::node);
    auto batch = in.scheduler.submit(
        in.spec.replicas, in.spec.seed, 2,
        [in, config, steps](std::int64_t, Rng& rng, std::span<double> out) {
          auto averaging = make_process(in.graph, config, in.initial);
          SelectionSequence sequence;
          sequence.reserve(static_cast<std::size_t>(steps));
          for (std::int64_t t = 0; t < steps; ++t) {
            sequence.push_back(averaging->step_recorded(rng));
          }
          DiffusionProcess diffusion(in.graph, config.alpha);
          diffusion.apply_reversed(sequence);
          const std::vector<double> w = diffusion.costs(in.initial);
          double max_diff = 0.0;
          double sum_diff = 0.0;
          for (NodeId u = 0; u < in.graph.node_count(); ++u) {
            const double diff =
                std::abs(averaging->state().value(u) -
                         w[static_cast<std::size_t>(u)]);
            max_diff = std::max(max_diff, diff);
            sum_diff += diff;
          }
          out[0] = max_diff;
          out[1] = sum_diff / static_cast<double>(in.graph.node_count());
        });
    const RowStream* const stream = in.rows;
    return [batch, steps, stream] {
      const std::vector<RunningStats>& stats = batch->stats();
      CellRows rows;
      rows.aggregate.push_back(
          {std::to_string(steps), fmt_sci(stats[0].max(), 2),
           fmt_sci(stats[1].mean(), 2),
           stats[0].max() < 1e-12 ? "yes" : "NO"});
      if (stream != nullptr) {
        rows.replica = replica_rows(*stream, *batch, 0, 2, true);
      }
      return rows;
    };
  }
};
OPINDYN_REGISTER_SCENARIO(DualityScenario)

/// --- martingale (Lemma 4.1 / Prop. D.1.i) --------------------------

/// (a) Exact one-step drift of both candidate conserved quantities for
/// both models, by full enumeration of the selection distribution: the
/// NodeModel conserves the degree-weighted M, the EdgeModel the plain
/// Avg, and the contrast columns are visibly nonzero on irregular
/// graphs.  (b) Monte-Carlo E[M(T)] after `horizon` steps stays at M(0).
class MartingaleScenario final : public Scenario {
 public:
  std::string name() const override { return "martingale"; }
  std::string description() const override {
    return "Lemma 4.1: exact one-step drift of M (NodeModel) and Avg "
           "(EdgeModel) by enumeration, plus Monte-Carlo E[M(T)] at "
           "horizon (0 = 16n).  Streams per-replica M(T).";
  }
  std::vector<std::string> columns() const override {
    return {"node |E[M']-M|", "node |E[Avg']-Avg|", "edge |E[Avg']-Avg|",
            "edge |E[M']-M|", "E[M(T)]", "+-CI", "M(0)", "Var(M(T))"};
  }
  std::vector<std::string> row_columns() const override {
    return {"replica", "M_T"};
  }
  CellFold start(const RunInput& in) const override {
    const ModelConfig config = in.spec.model;

    // Exact enumeration (no sampling) on the pool.  NaN marks the
    // NodeModel slots when k exceeds the minimum degree (enumeration
    // needs every node able to draw k distinct neighbours).
    auto exact = in.scheduler.submit(
        1, subseed(in.spec.seed, 0x41), 4,
        [in, config](std::int64_t, Rng&, std::span<double> out) {
          const Graph& g = in.graph;
          const std::vector<double>& xi = in.initial;
          const double m0 = degree_weighted_average(g, xi);
          const double avg0 = plain_average(xi);
          const auto drift = [&](const std::vector<WeightedSelection>&
                                     selections,
                                 double alpha) {
            double m_after = 0.0;
            double avg_after = 0.0;
            for (const WeightedSelection& ws : selections) {
              const std::vector<double> next =
                  apply_update(xi, ws.selection, alpha);
              m_after += ws.probability * degree_weighted_average(g, next);
              avg_after += ws.probability * plain_average(next);
            }
            return std::make_pair(std::abs(m_after - m0),
                                  std::abs(avg_after - avg0));
          };
          if (config.k <= g.min_degree()) {
            const auto [m_drift, avg_drift] =
                drift(enumerate_node_selections(g, config.k), config.alpha);
            out[0] = m_drift;
            out[1] = avg_drift;
          }
          const auto [m_drift, avg_drift] =
              drift(enumerate_edge_selections(g), config.alpha);
          out[2] = avg_drift;
          out[3] = m_drift;
        });

    // Monte-Carlo long-horizon drift of the NodeModel martingale.  Like
    // the enumeration, the model itself needs k distinct neighbours at
    // every node; cells with k above the minimum degree report "n/a".
    const std::int64_t horizon = in.spec.horizon > 0
                                     ? in.spec.horizon
                                     : 16 * in.graph.node_count();
    ModelConfig node = config;
    node.kind = ModelKind::node;
    const bool k_fits = config.k <= in.graph.min_degree();
    const auto read_m = [](const AveragingProcess& process,
                           std::span<double> out) {
      out[0] = process.state().weighted_average();
    };
    const auto mc =
        k_fits ? submit_horizon(in, node, {.max_steps = horizon}, 1, read_m)
               : nullptr;

    const RowStream* const stream = in.rows;
    return [in, exact, mc, k_fits, stream] {
      const double m0 = degree_weighted_average(in.graph, in.initial);
      const RunningStats m_t = k_fits ? mc->stats()[0] : RunningStats();
      CellRows rows;
      rows.aggregate.push_back(
          {sci_or_na(exact->sample(0, 0), 2),
           sci_or_na(exact->sample(0, 1), 2),
           fmt_sci(exact->sample(0, 2), 2),
           fmt_sci(exact->sample(0, 3), 2),
           k_fits ? fmt_fixed(m_t.mean(), 5) : "n/a",
           k_fits ? fmt_fixed(m_t.mean_ci_halfwidth(), 5) : "n/a",
           fmt_fixed(m0, 5),
           k_fits ? fmt_sci(m_t.population_variance(), 3) : "n/a"});
      if (stream != nullptr && k_fits) {
        rows.replica = replica_rows(*stream, *mc, 0, 6, false);
      }
      return rows;
    };
  }
};
OPINDYN_REGISTER_SCENARIO(MartingaleScenario)

/// --- qchain (Lemma 5.7) --------------------------------------------

/// Builds the exact n^2-state Q-chain transition matrix from the walk
/// semantics and verifies that the Lemma 5.7 closed-form stationary
/// distribution satisfies mu Q = mu to machine precision, agrees with
/// the power-iteration stationary vector, and is normalised.
class QChainScenario final : public Scenario {
 public:
  std::string name() const override { return "qchain"; }
  std::string description() const override {
    return "Lemma 5.7: closed-form three-value stationary distribution "
           "of the exact Q-chain; residual and power-iteration deviation "
           "at machine precision (regular graphs, n <= 40).";
  }
  std::vector<std::string> columns() const override {
    return {"d",    "mu0", "mu1", "mu+", "||muQ - mu||_inf",
            "max |closed - power|", "norm identity"};
  }
  CellFold start(const RunInput& in) const override {
    const ModelConfig config = in.spec.model;
    auto batch = in.scheduler.submit(
        1, subseed(in.spec.seed, 0x57), 6,
        [in, config](std::int64_t, Rng&, std::span<double> out) {
          const Graph& g = in.graph;
          if (!g.is_regular()) {
            throw std::runtime_error(
                "scenario 'qchain': Lemma 5.7's closed form needs a "
                "regular graph, got " + g.name());
          }
          if (config.k > g.min_degree()) {
            throw std::runtime_error(
                "scenario 'qchain': k = " + std::to_string(config.k) +
                " exceeds the degree d = " +
                std::to_string(g.min_degree()));
          }
          if (g.node_count() > 40) {
            throw std::runtime_error(
                "scenario 'qchain': the dense n^2-state chain needs "
                "n <= 40, got n = " + std::to_string(g.node_count()));
          }
          QChain chain(g, config.alpha, config.k);
          const QStationaryValues values = q_stationary_closed_form(
              g.node_count(), g.min_degree(), config.k, config.alpha);
          const std::vector<double> closed =
              chain.closed_form_stationary();
          const StationaryResult numerical =
              chain.numerical_stationary(1e-13, 4000000);
          double max_dev = 0.0;
          for (std::size_t s = 0; s < closed.size(); ++s) {
            max_dev = std::max(
                max_dev, std::abs(closed[s] - numerical.distribution[s]));
          }
          const double n = static_cast<double>(g.node_count());
          const double d = static_cast<double>(g.min_degree());
          out[0] = values.mu0;
          out[1] = values.mu1;
          out[2] = values.mu_plus;
          out[3] = chain.closed_form_residual();
          out[4] = max_dev;
          out[5] = n * values.mu0 + n * d * values.mu1 +
                   n * (n - d - 1.0) * values.mu_plus;
        });
    const std::int64_t degree = in.graph.min_degree();
    return [batch, degree] {
      return CellRows{{{std::to_string(degree),
                        fmt_sci(batch->sample(0, 0), 4),
                        fmt_sci(batch->sample(0, 1), 4),
                        fmt_sci(batch->sample(0, 2), 4),
                        fmt_sci(batch->sample(0, 3), 2),
                        fmt_sci(batch->sample(0, 4), 2),
                        fmt_fixed(batch->sample(0, 5), 12)}},
                      {}};
    };
  }
};
OPINDYN_REGISTER_SCENARIO(QChainScenario)

/// --- thm22_variance (Theorem 2.2(2) / Prop. 5.8) -------------------

/// NodeModel Var(F) on regular graphs against the exact Prop. 5.8 value
/// and the Theta(||xi||^2 / n^2) envelope; streams per-replica F so the
/// histogram sink can show the shape of the limit distribution.
class Thm22VarianceScenario final : public Scenario {
 public:
  std::string name() const override { return "thm22_variance"; }
  std::string description() const override {
    return "Thm 2.2(2): NodeModel Var(F) vs the exact Prop 5.8 value and "
           "the Theta(||xi||^2/n^2) envelope; streams per-replica F.";
  }
  std::vector<std::string> columns() const override {
    return {"d",         "Var(F)",     "+-CI(Var)",
            "Var exact (P5.8)", "meas/exact", "n^2 Var / ||xi||^2",
            "envelope lo",      "envelope hi"};
  }
  std::vector<std::string> row_columns() const override {
    return {"replica", "F"};
  }
  CellFold start(const RunInput& in) const override {
    ModelConfig config = in.spec.model;
    config.kind = ModelKind::node;
    auto measured =
        submit_converging(in, config, in.spec.convergence);
    auto prediction = in.scheduler.submit(
        1, subseed(in.spec.seed, 0x22), 3,
        [in, config](std::int64_t, Rng&, std::span<double> out) {
          if (!in.graph.is_regular() ||
              config.k > in.graph.min_degree()) {
            return;  // closed form undefined; slots stay NaN -> "n/a"
          }
          const double norm = initial::l2_squared(in.initial);
          out[0] = theory::variance_exact(in.graph, config.alpha, config.k,
                                          in.initial);
          out[1] = theory::variance_lower_coeff(
                       in.graph.node_count(), in.graph.min_degree(),
                       config.k, config.alpha) * norm;
          out[2] = theory::variance_upper_coeff(
                       in.graph.node_count(), in.graph.min_degree(),
                       config.k, config.alpha) * norm;
        });
    const RowStream* const stream = in.rows;
    return [in, measured, prediction, stream] {
      const RunningStats& value = measured->stats()[kValue];
      const double var = value.population_variance();
      const double exact = prediction->sample(0, 0);
      const double n = static_cast<double>(in.graph.node_count());
      const double norm = initial::l2_squared(in.initial);
      CellRows rows;
      rows.aggregate.push_back(
          {std::to_string(in.graph.min_degree()), fmt_sci(var, 3),
           fmt_sci(value.variance_ci_halfwidth(), 1), sci_or_na(exact, 3),
           fixed_or_na(var / exact, 3), fmt_fixed(var * n * n / norm, 3),
           sci_or_na(prediction->sample(0, 1), 2),
           sci_or_na(prediction->sample(0, 2), 2)});
      if (stream != nullptr) {
        rows.replica = replica_rows(*stream, *measured, kValue, 4, true);
      }
      return rows;
    };
  }
};
OPINDYN_REGISTER_SCENARIO(Thm22VarianceScenario)

/// --- thm24_edge_convergence (Theorem 2.4(1)) -----------------------

/// EdgeModel eps-convergence time (plain potential, Prop. D.1) against
/// the exact D.1(ii) per-step contraction and the theorem's
/// m log(n ||xi||^2 / eps) / lambda2(L) scale; streams per-replica T.
class Thm24EdgeConvergenceScenario final : public Scenario {
 public:
  std::string name() const override { return "thm24_edge_convergence"; }
  std::string description() const override {
    return "Thm 2.4(1): EdgeModel T_eps vs the exact Prop D.1(ii) "
           "prediction and the theorem's m log(.)/lambda2(L) scale.";
  }
  std::vector<std::string> columns() const override {
    return {"m",        "lambda2(L)",        "T measured", "+-CI",
            "T predicted (D.1)", "theorem scale", "meas/pred"};
  }
  std::vector<std::string> row_columns() const override {
    return {"replica", "T_eps"};
  }
  SpectrumNeeds reads_spectra() const override {
    return {.laplacian = true};
  }
  CellFold start(const RunInput& in) const override {
    ModelConfig config = in.spec.model;
    config.kind = ModelKind::edge;
    ConvergenceOptions convergence = in.spec.convergence;
    convergence.use_plain_potential = true;  // the Prop. D.1 potential
    auto measured = submit_converging(in, config, convergence);
    auto prediction = in.scheduler.submit(
        1, subseed(in.spec.seed, 0x24), 3,
        [in, config, convergence](std::int64_t, Rng&, std::span<double> out) {
          const LaplacianEigenvalues& lap = in.spectra.laplacian();
          OpinionState probe(in.graph, in.initial);
          const double rho = theory::edge_model_rho(
              lap.lambda2, config.alpha, in.graph.edge_count(),
              config.lazy);
          out[0] = lap.lambda2;
          out[1] = theory::steps_to_epsilon(rho, probe.phi_plain_exact(),
                                            convergence.epsilon);
          out[2] = theory::edge_convergence_bound(
              in.graph.node_count(), in.graph.edge_count(),
              initial::l2_squared(in.initial), convergence.epsilon,
              lap.lambda2);
        });
    const std::int64_t m = in.graph.edge_count();
    const RowStream* const stream = in.rows;
    return [measured, prediction, m, stream] {
      const RunningStats& steps = measured->stats()[kSteps];
      const double predicted = prediction->sample(0, 1);
      CellRows rows;
      rows.aggregate.push_back(
          {std::to_string(m), fmt_sci(prediction->sample(0, 0), 3),
           fmt_fixed(steps.mean(), 0),
           fmt_fixed(steps.mean_ci_halfwidth(), 0),
           fmt_fixed(predicted, 0),
           fmt_fixed(prediction->sample(0, 2), 0),
           fmt_fixed(steps.mean() / predicted, 3)});
      if (stream != nullptr) {
        rows.replica = replica_rows(*stream, *measured, kSteps, 0, false);
      }
      return rows;
    };
  }
};
OPINDYN_REGISTER_SCENARIO(Thm24EdgeConvergenceScenario)

/// --- thm24_edge_variance (Theorem 2.4(2)) --------------------------

/// Two rows per cell: the EdgeModel and the NodeModel at k = 1 on the
/// same input.  With `init=hub_spike center=none` on irregular graphs
/// E[F] must track the *plain* Avg(0) (not the degree-weighted M(0),
/// Prop. D.1.i); on regular graphs both variances match the exact
/// Prop. 5.8 value.  Streams per-replica F for both models.
class Thm24EdgeVarianceScenario final : public Scenario {
 public:
  std::string name() const override { return "thm24_edge_variance"; }
  std::string description() const override {
    return "Thm 2.4(2): EdgeModel vs NodeModel(k=1) E[F] and Var(F); "
           "E[F] tracks Avg(0) (use init=hub_spike center=none), Var "
           "matches Prop 5.8 on regular graphs.";
  }
  std::vector<std::string> columns() const override {
    return {"model",  "E[F]",   "+-CI", "Avg(0)", "M(0)",
            "Var(F)", "Var exact (P5.8)", "var/exact"};
  }
  std::vector<std::string> row_columns() const override {
    return {"model", "replica", "F"};
  }
  CellFold start(const RunInput& in) const override {
    ModelConfig edge = in.spec.model;
    edge.kind = ModelKind::edge;
    ConvergenceOptions edge_convergence = in.spec.convergence;
    edge_convergence.use_plain_potential = true;
    auto edge_batch = submit_converging(in, edge, edge_convergence, 0);

    ModelConfig node = in.spec.model;
    node.kind = ModelKind::node;
    node.k = 1;
    auto node_batch =
        submit_converging(in, node, in.spec.convergence, 1);

    auto prediction = in.scheduler.submit(
        1, subseed(in.spec.seed, 0x42), 1,
        [in, node](std::int64_t, Rng&, std::span<double> out) {
          if (in.graph.is_regular()) {
            out[0] = theory::variance_exact(in.graph, node.alpha, 1,
                                            in.initial);
          }
        });
    const RowStream* const stream = in.rows;
    return [in, edge_batch, node_batch, prediction, stream] {
      const double avg0 = plain_average(in.initial);
      const double m0 = degree_weighted_average(in.graph, in.initial);
      const double exact = prediction->sample(0, 0);
      CellRows rows;
      RowEmitter streamed =
          stream != nullptr ? stream->emitter() : RowEmitter();
      const std::pair<const char*, std::shared_ptr<ReplicaBatch>>
          models[] = {{"EdgeModel", edge_batch},
                      {"NodeModel k=1", node_batch}};
      for (const auto& [label, batch] : models) {
        const RunningStats& value = batch->stats()[kValue];
        const double var = value.population_variance();
        rows.aggregate.push_back(
            {label, fmt_fixed(value.mean(), 4),
             fmt_fixed(value.mean_ci_halfwidth(), 4), fmt_fixed(avg0, 4),
             fmt_fixed(m0, 4), fmt_sci(var, 3), sci_or_na(exact, 3),
             fixed_or_na(var / exact, 3)});
        if (stream != nullptr) {
          for (std::int64_t r = 0; r < batch->replicas(); ++r) {
            streamed.row().text(label).integer(r).sci(
                batch->sample(r, kValue), 4);
          }
        }
      }
      rows.replica = streamed.take();
      return rows;
    };
  }
};
OPINDYN_REGISTER_SCENARIO(Thm24EdgeVarianceScenario)

/// --- prop58_variance (Proposition 5.8) -----------------------------

/// Monte-Carlo Var(F) of the NodeModel against the closed-form
/// mu-expression.  The formula depends on xi(0) only through ||xi||^2
/// and the neighbour-correlation term, so sweeping `init` over
/// placements of the same multiset (alternating / blocks / rademacher)
/// shows the correlation term at work.  Streams per-replica F.
class Prop58VarianceScenario final : public Scenario {
 public:
  std::string name() const override { return "prop58_variance"; }
  std::string description() const override {
    return "Prop 5.8: exact Var(F) formula vs Monte-Carlo; sweep init "
           "over alternating/blocks placements to see the "
           "neighbour-correlation term.  Regular graphs.";
  }
  std::vector<std::string> columns() const override {
    return {"sum xi^2",        "sum E+ xi_u xi_v", "Var exact (P5.8)",
            "Var measured", "+-CI(Var)",        "meas/exact"};
  }
  std::vector<std::string> row_columns() const override {
    return {"replica", "F"};
  }
  CellFold start(const RunInput& in) const override {
    ModelConfig config = in.spec.model;
    config.kind = ModelKind::node;
    auto measured =
        submit_converging(in, config, in.spec.convergence);
    auto prediction = in.scheduler.submit(
        1, subseed(in.spec.seed, 0x58), 2,
        [in, config](std::int64_t, Rng&, std::span<double> out) {
          out[1] = theory::directed_edge_correlation(in.graph, in.initial);
          if (in.graph.is_regular() &&
              config.k <= in.graph.min_degree()) {
            out[0] = theory::variance_exact(in.graph, config.alpha,
                                            config.k, in.initial);
          }
        });
    const RowStream* const stream = in.rows;
    return [in, measured, prediction, stream] {
      const RunningStats& value = measured->stats()[kValue];
      const double var = value.population_variance();
      const double exact = prediction->sample(0, 0);
      CellRows rows;
      rows.aggregate.push_back(
          {fmt_fixed(initial::l2_squared(in.initial), 1),
           fmt_fixed(prediction->sample(0, 1), 1), sci_or_na(exact, 3),
           fmt_sci(var, 3), fmt_sci(value.variance_ci_halfwidth(), 1),
           fixed_or_na(var / exact, 3)});
      if (stream != nullptr) {
        rows.replica = replica_rows(*stream, *measured, kValue, 4, true);
      }
      return rows;
    };
  }
};
OPINDYN_REGISTER_SCENARIO(Prop58VarianceScenario)

/// --- propB1_drop (Proposition B.1) ---------------------------------

/// Exact one-step potential drop E[phi'] by enumeration against the
/// Prop. B.1 bound (1 - rho) phi, for the worst-case state xi = f2(P)
/// (where the bound is near-tight) and a random Gaussian state (where
/// it is conservative).  Two rows per cell.
class PropB1DropScenario final : public Scenario {
 public:
  std::string name() const override { return "propB1_drop"; }
  std::string description() const override {
    return "Prop B.1: exact one-step E[phi'] by enumeration vs the "
           "(1 - rho) phi bound, on the f2(P) worst case and a random "
           "state; slack >= 1 everywhere.";
  }
  std::vector<std::string> columns() const override {
    return {"state", "phi", "E[phi'] exact", "bound (1-rho) phi", "slack",
            "holds"};
  }
  SpectrumNeeds reads_spectra() const override {
    return {.walk = true, .walk_f2 = true};
  }
  CellFold start(const RunInput& in) const override {
    const ModelConfig config = in.spec.model;
    auto batch = in.scheduler.submit(
        1, subseed(in.spec.seed, 0xB1), 8,
        [in, config](std::int64_t, Rng& rng, std::span<double> out) {
          const Graph& g = in.graph;
          if (config.k > g.min_degree()) {
            throw std::runtime_error(
                "scenario 'propB1_drop': k = " +
                std::to_string(config.k) + " exceeds the minimum degree " +
                std::to_string(g.min_degree()) +
                " (the enumeration needs k distinct neighbours "
                "everywhere)");
          }
          // f2 first: its full solve also fills the eigenvalues, so
          // walk() is a hit even while the declared solve is in flight.
          const std::vector<double>& f2 = in.spectra.walk_f2();
          const WalkEigenvalues& spectrum = in.spectra.walk();
          // Non-lazy normalisation: the exact one-step enumeration below
          // has no laziness coin, so the bound drops the /2 as well.
          const double rho = theory::node_model_rho(
              spectrum.lambda2, config.alpha, config.k, g.node_count(),
              false);
          const auto selections =
              enumerate_node_selections(g, config.k);
          std::vector<double> random_state = initial::gaussian(
              rng, g.node_count(), 0.0, 1.0);
          initial::center_degree_weighted(g, random_state);
          const std::pair<std::size_t, const std::vector<double>*>
              states[] = {{0, &f2}, {4, &random_state}};
          for (const auto& [base, xi] : states) {
            OpinionState probe(g, *xi);
            const double phi0 = probe.phi_exact();
            double expected = 0.0;
            for (const WeightedSelection& ws : selections) {
              const std::vector<double> next =
                  apply_update(*xi, ws.selection, config.alpha);
              OpinionState next_state(g, next);
              expected += ws.probability * next_state.phi_exact();
            }
            const double bound = (1.0 - rho) * phi0;
            out[base + 0] = phi0;
            out[base + 1] = expected;
            out[base + 2] = bound;
            out[base + 3] = (phi0 - expected) / (phi0 - bound);
          }
        });
    return [batch] {
      CellRows rows;
      const std::pair<const char*, std::size_t> states[] = {{"f2(P)", 0},
                                                            {"random", 4}};
      for (const auto& [label, base] : states) {
        const double expected = batch->sample(0, base + 1);
        const double bound = batch->sample(0, base + 2);
        rows.aggregate.push_back(
            {label, fmt_sci(batch->sample(0, base + 0), 3),
             fmt_sci(expected, 3), fmt_sci(bound, 3),
             fmt_fixed(batch->sample(0, base + 3), 3),
             expected <= bound + 1e-12 ? "yes" : "NO"});
      }
      return rows;
    };
  }
};
OPINDYN_REGISTER_SCENARIO(PropB1DropScenario)

/// --- propB2_node / propB2_edge (Proposition B.2) -------------------

/// Tightness of the convergence bounds via the adversarial eigenvector
/// start (use `init=f2_walk center=none`): measured T_eps against the
/// Omega() lower scale and the matching B.1 upper prediction.
class PropB2NodeScenario final : public Scenario {
 public:
  std::string name() const override { return "propB2_node"; }
  std::string description() const override {
    return "Prop B.2 (NodeModel): T_eps with xi(0) = beta f2(P) "
           "(init=f2_walk) vs the Omega lower scale and the B.1 upper "
           "prediction; the sandwich ratio is Theta(1).";
  }
  std::vector<std::string> columns() const override {
    return {"1-l2(P)",    "T measured", "+-CI",      "lower scale",
            "upper (B.1)", "meas/lower", "meas/upper"};
  }
  std::vector<std::string> row_columns() const override {
    return {"replica", "T_eps"};
  }
  SpectrumNeeds reads_spectra() const override {
    return {.walk = true};
  }
  CellFold start(const RunInput& in) const override {
    ModelConfig config = in.spec.model;
    config.kind = ModelKind::node;
    auto measured =
        submit_converging(in, config, in.spec.convergence);
    auto prediction = in.scheduler.submit(
        1, subseed(in.spec.seed, 0xB2), 3,
        [in, config](std::int64_t, Rng&, std::span<double> out) {
          const WalkEigenvalues& spectrum = in.spectra.walk();
          const double n = static_cast<double>(in.graph.node_count());
          const double eps = in.spec.convergence.epsilon;
          OpinionState probe(in.graph, in.initial);
          out[0] = spectrum.gap;
          out[1] = n *
                   std::log(n * initial::l2_squared(in.initial) / eps) /
                   ((1.0 - config.alpha) * spectrum.gap);
          out[2] = theory::steps_to_epsilon(
              theory::node_model_rho(spectrum.lambda2, config.alpha,
                                     config.k, in.graph.node_count(),
                                     config.lazy),
              probe.phi_exact(), eps);
        });
    const RowStream* const stream = in.rows;
    return [measured, prediction, stream] {
      const RunningStats& steps = measured->stats()[kSteps];
      const double lower = prediction->sample(0, 1);
      const double upper = prediction->sample(0, 2);
      CellRows rows;
      rows.aggregate.push_back(
          {fmt_sci(prediction->sample(0, 0), 2),
           fmt_fixed(steps.mean(), 0),
           fmt_fixed(steps.mean_ci_halfwidth(), 0), fmt_fixed(lower, 0),
           fmt_fixed(upper, 0), fmt_fixed(steps.mean() / lower, 3),
           fmt_fixed(steps.mean() / upper, 3)});
      if (stream != nullptr) {
        rows.replica = replica_rows(*stream, *measured, kSteps, 0, false);
      }
      return rows;
    };
  }
};
OPINDYN_REGISTER_SCENARIO(PropB2NodeScenario)

class PropB2EdgeScenario final : public Scenario {
 public:
  std::string name() const override { return "propB2_edge"; }
  std::string description() const override {
    return "Prop B.2 (EdgeModel): T_eps with xi(0) = beta f2(L) "
           "(init=f2_laplacian) vs the Omega m log(.)/lambda2(L) lower "
           "scale; meas/lower is Theta(1).";
  }
  std::vector<std::string> columns() const override {
    return {"m",          "l2(L)",     "T measured",
            "+-CI",       "lower scale", "meas/lower"};
  }
  std::vector<std::string> row_columns() const override {
    return {"replica", "T_eps"};
  }
  SpectrumNeeds reads_spectra() const override {
    return {.laplacian = true};
  }
  CellFold start(const RunInput& in) const override {
    ModelConfig config = in.spec.model;
    config.kind = ModelKind::edge;
    ConvergenceOptions convergence = in.spec.convergence;
    convergence.use_plain_potential = true;
    auto measured = submit_converging(in, config, convergence);
    auto prediction = in.scheduler.submit(
        1, subseed(in.spec.seed, 0xB3), 2,
        [in, config, convergence](std::int64_t, Rng&, std::span<double> out) {
          const LaplacianEigenvalues& lap = in.spectra.laplacian();
          const double n = static_cast<double>(in.graph.node_count());
          out[0] = lap.lambda2;
          out[1] = static_cast<double>(in.graph.edge_count()) *
                   std::log(n * initial::l2_squared(in.initial) /
                            convergence.epsilon) /
                   ((1.0 - config.alpha) * lap.lambda2);
        });
    const std::int64_t m = in.graph.edge_count();
    const RowStream* const stream = in.rows;
    return [measured, prediction, m, stream] {
      const RunningStats& steps = measured->stats()[kSteps];
      const double lower = prediction->sample(0, 1);
      CellRows rows;
      rows.aggregate.push_back(
          {std::to_string(m), fmt_sci(prediction->sample(0, 0), 2),
           fmt_fixed(steps.mean(), 0),
           fmt_fixed(steps.mean_ci_halfwidth(), 0), fmt_fixed(lower, 0),
           fmt_fixed(steps.mean() / lower, 3)});
      if (stream != nullptr) {
        rows.replica = replica_rows(*stream, *measured, kSteps, 0, false);
      }
      return rows;
    };
  }
};
OPINDYN_REGISTER_SCENARIO(PropB2EdgeScenario)

/// The model of a cell that reads one of the two paper processes from
/// model= (node or edge); throws a one-line error for any other kind or
/// a knob the kind does not use.
ModelConfig node_or_edge_config(const std::string& scenario,
                                const ExperimentSpec& spec) {
  const ModelConfig& config = spec.model;
  if (config.kind != ModelKind::node && config.kind != ModelKind::edge) {
    throw std::runtime_error("scenario '" + scenario +
                             "': model= must be node or edge, got '" +
                             model_kind_name(config.kind) + "'");
  }
  validate_model_config(config);
  return config;
}

/// Rejects a cell whose spec n exceeds what the scenario's exact side
/// can afford, before any output file opens.
void require_n_at_most(const std::string& scenario, const ExperimentSpec& spec,
                       NodeId limit, const std::string& why) {
  if (spec.graph.n > limit) {
    throw std::runtime_error("scenario '" + scenario + "': " + why +
                             " needs n <= " + std::to_string(limit) +
                             ", got n = " + std::to_string(spec.graph.n));
  }
}

/// --- corE2_bounds (Corollary E.2) ----------------------------------

/// (i) lambda2(L) >= i(G)^2 / (2 d_max) with the exact isoperimetric
/// number; (ii) Var(M(t)) <= t (d_max K / 2m)^2 for the NodeModel and
/// (iii) Var(Avg(t)) <= t K^2 / n^2 for the EdgeModel, measured at
/// t = horizon for the model= kind.  K is the discrepancy max - min of
/// xi(0); none of the three sides moves when xi(0) is shifted.
class CorE2BoundsScenario final : public Scenario {
 public:
  /// The subset enumeration behind i(G) visits 2^n cuts.
  static constexpr NodeId kMaxNodes = 20;

  std::string name() const override { return "corE2_bounds"; }
  std::string description() const override {
    return "Cor E.2: lambda2(L) >= i(G)^2/(2 d_max) with the exact i(G), "
           "and Var(M(t)) (model=node) or Var(Avg(t)) (model=edge) at "
           "t = horizon (0 = 16n) under its early-time bound.  n <= 20.";
  }
  std::vector<std::string> columns() const override {
    return {"i(G)", "d_max",        "i^2/(2 d_max)", "lambda2(L)", "t",
            "Var measured", "Var bound", "ratio",   "holds"};
  }
  SpectrumNeeds reads_spectra() const override {
    return {.laplacian = true};
  }
  void validate(const ExperimentSpec& cell) const override {
    node_or_edge_config(name(), cell);
    require_n_at_most(name(), cell, kMaxNodes,
                      "the exact isoperimetric number");
  }
  CellFold start(const RunInput& in) const override {
    const ModelConfig config = node_or_edge_config(name(), in.spec);
    const std::int64_t t = in.spec.horizon > 0
                               ? in.spec.horizon
                               : 16 * in.graph.node_count();
    auto exact = in.scheduler.submit(
        1, subseed(in.spec.seed, 0xE2), 3,
        [in](std::int64_t, Rng&, std::span<double> out) {
          const double ig = isoperimetric_number_exact(in.graph);
          out[0] = ig;
          out[1] = theory::cheeger_lambda2_lower_bound(
              ig, in.graph.max_degree());
          out[2] = in.spectra.laplacian().lambda2;
        });
    const bool edge = config.kind == ModelKind::edge;
    auto measured = submit_horizon(
        in, config, {.max_steps = t}, 1,
        [edge](const AveragingProcess& process, std::span<double> out) {
          out[0] = edge ? process.state().average()
                        : process.state().weighted_average();
        });
    return [in, exact, measured, t, edge] {
      const Graph& g = in.graph;
      const double discrepancy = OpinionState(g, in.initial).discrepancy();
      const double var = measured->stats()[0].population_variance();
      const double var_bound =
          edge ? theory::edge_var_avg_time_bound(t, discrepancy,
                                                 g.node_count())
               : theory::node_var_m_time_bound(t, discrepancy,
                                               g.max_degree(),
                                               g.edge_count());
      const double cheeger = exact->sample(0, 1);
      const double lambda2 = exact->sample(0, 2);
      const bool holds = lambda2 + 1e-12 >= cheeger && var <= var_bound;
      return CellRows{{{fmt_fixed(exact->sample(0, 0), 4),
                        std::to_string(g.max_degree()), fmt_sci(cheeger, 3),
                        fmt_sci(lambda2, 3), std::to_string(t),
                        fmt_sci(var, 3), fmt_sci(var_bound, 3),
                        fmt_fixed(var / var_bound, 4),
                        holds ? "yes" : "NO"}},
                      {}};
    };
  }
};
OPINDYN_REGISTER_SCENARIO(CorE2BoundsScenario)

/// --- future_extensions (Section 6) ---------------------------------

/// The paper's Section 6 questions answered against Monte Carlo with the
/// exact joint-walk chains of core/moments: the third central moment of
/// F from three correlated walks (NodeModel; "n/a" for the EdgeModel),
/// and Var(F) from two walks on ANY connected graph, where Lemma 5.7's
/// closed form needs regularity.  Moments are central around the
/// model's conserved average (M(0) for node, Avg(0) for edge), and the
/// SE columns are the Monte-Carlo standard errors of both estimates.
class FutureExtensionsScenario final : public Scenario {
 public:
  /// The three-walk chain is a dense n^3 x n^3 matrix (24 MB at n = 12).
  static constexpr NodeId kMaxNodes = 12;

  std::string name() const override { return "future_extensions"; }
  std::string description() const override {
    return "Section 6: E[(F-c)^3] from the exact 3-walk chain (model=node) "
           "and Var(F) from the 2-walk chain on any graph (model=node or "
           "edge) vs Monte Carlo with SEs.  n <= 12.";
  }
  std::vector<std::string> columns() const override {
    return {"E[F^3] exact", "E[F^3] MC", "SE(F^3)",   "skewness",
            "Var(F) exact", "Var(F) MC", "SE(Var)",   "MC/exact",
            "n^2 Var / ||xi||^2"};
  }
  void validate(const ExperimentSpec& cell) const override {
    node_or_edge_config(name(), cell);
    require_n_at_most(name(), cell, kMaxNodes, "the exact 3-walk chain");
  }
  CellFold start(const RunInput& in) const override {
    const ModelConfig config = node_or_edge_config(name(), in.spec);
    auto measured = submit_converging(in, config, in.spec.convergence);
    auto exact = in.scheduler.submit(
        1, subseed(in.spec.seed, 0x56), 2,
        [in, config](std::int64_t, Rng&, std::span<double> out) {
          if (config.kind == ModelKind::node) {
            out[0] = predicted_moment(in.graph, config.alpha, config.k,
                                      in.initial, 3);
            out[1] = predicted_variance_any_graph(in.graph, config.alpha,
                                                  config.k, in.initial);
          } else {
            out[1] = predicted_variance_any_graph_edge(
                in.graph, config.alpha, in.initial);
          }
        });
    const double center = config.kind == ModelKind::node
                              ? degree_weighted_average(in.graph, in.initial)
                              : plain_average(in.initial);
    return [in, measured, exact, center] {
      RunningStats third;
      for (std::int64_t r = 0; r < measured->replicas(); ++r) {
        const double d = measured->sample(r, kValue) - center;
        third.add(d * d * d);
      }
      const RunningStats& value = measured->stats()[kValue];
      const double exact3 = exact->sample(0, 0);
      const double exact_var = exact->sample(0, 1);
      const double var = value.population_variance();
      double norm = 0.0;
      for (const double x : in.initial) {
        norm += (x - center) * (x - center);
      }
      const double n = static_cast<double>(in.graph.node_count());
      const bool has3 = !std::isnan(exact3);
      return CellRows{
          {{sci_or_na(exact3, 3), has3 ? fmt_sci(third.mean(), 3) : "n/a",
            has3 ? fmt_sci(third.mean_ci_halfwidth(1.0), 2) : "n/a",
            fixed_or_na(exact3 / std::pow(exact_var, 1.5), 3),
            fmt_sci(exact_var, 3), fmt_sci(var, 3),
            fmt_sci(value.variance_ci_halfwidth(1.0), 2),
            fmt_fixed(var / exact_var, 3),
            fmt_fixed(exact_var * n * n / norm, 3)}},
          {}};
    };
  }
};
OPINDYN_REGISTER_SCENARIO(FutureExtensionsScenario)

}  // namespace

void register_paper_scenarios() {
  // Keep-alive hook (see register_builtin_scenarios): the registrars in
  // this translation unit run at static-initialisation time once the
  // unit is linked; calling this from the runner-facing hook prevents a
  // static-library build from dropping the whole object file.
}

}  // namespace engine
}  // namespace opindyn
