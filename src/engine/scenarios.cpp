// Built-in scenarios: the paper's two averaging processes and their lazy
// and k-sample variants, the related-work dynamics (all first-class
// AveragingProcess kinds in src/core/ now -- voter, gossip, DeGroot,
// Friedkin-Johnsen, weighted-median, Hegselmann-Krause), the comparison
// races the benches used to hand-roll, and the streaming tail /
// trajectory workloads.  Each scenario self-registers, so `opindyn
// list` and the batch runner discover them by name.
//
// Every scenario that runs a model to eps-convergence does it through
// submit_converging (scenario_runs.h).  The single-model scenarios
// (node, edge, lazy, weighted_median) are registrations of the
// cross_model class that force their own ModelKind through
// config_for_kind (which also drops knobs the kind does not read); the
// cross_model registration honours `model=` verbatim, so `model` is a
// legal sweep axis there.
//
// Scenarios run in two phases (see scenario.h): start() submits replica
// batches to the shared CellScheduler without blocking -- heavy per-cell
// analysis (spectra, deterministic baselines) is wrapped in one-replica
// batches so it runs on the pool too -- and the returned fold formats
// rows once the runner reaches the cell in emission order.  Batch bodies
// capture the RunInput by value: it only holds references to the
// runner-owned cell context, which outlives the batch.
#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/coalescing.h"
#include "src/core/degroot.h"
#include "src/core/friedkin_johnsen.h"
#include "src/core/hegselmann_krause_model.h"
#include "src/core/initial_values.h"
#include "src/core/convergence.h"
#include "src/core/model.h"
#include "src/core/theory.h"
#include "src/engine/scenario.h"
#include "src/engine/scenario_format.h"
#include "src/engine/scenario_runs.h"
#include "src/graph/algorithms.h"
#include "src/service/cancel_token.h"
#include "src/spectral/spectra.h"
#include "src/support/metrics.h"

namespace opindyn {
namespace engine {
namespace {

/// The E[F] / Var(F) / T_eps / diverged cells of a submit_converging
/// batch (the columns of cross_model and its forced-kind registrations).
std::vector<std::string> averaging_row(ReplicaBatch& batch) {
  const std::vector<RunningStats>& stats = batch.stats();
  const std::int64_t diverged =
      batch.replicas() - std::llround(stats[kConverged].sum());
  return {fmt(stats[kValue].mean()),
          fmt(stats[kValue].mean_ci_halfwidth(), 3),
          fmt_sci(stats[kValue].population_variance(), 3),
          fmt_fixed(stats[kSteps].mean(), 1),
          fmt_fixed(stats[kSteps].mean_ci_halfwidth(), 1),
          std::to_string(diverged)};
}

/// Both processes on the same input, side by side.
class NodeVsEdgeScenario final : public Scenario {
 public:
  std::string name() const override { return "node_vs_edge"; }
  std::string description() const override {
    return "NodeModel vs EdgeModel on the same graph and xi(0): "
           "convergence times and Var(F) side by side.";
  }
  std::vector<std::string> columns() const override {
    return {"T node", "T edge", "T node/edge", "Var(F) node",
            "Var(F) edge"};
  }
  CellFold start(const RunInput& in) const override {
    const ModelConfig node = config_for_kind(in.spec.model, ModelKind::node);
    const ModelConfig edge = config_for_kind(in.spec.model, ModelKind::edge);
    auto node_batch = submit_converging(in, node, in.spec.convergence, 0);
    auto edge_batch = submit_converging(in, edge, in.spec.convergence, 1);
    return [node_batch, edge_batch] {
      const std::vector<RunningStats>& ns = node_batch->stats();
      const std::vector<RunningStats>& es = edge_batch->stats();
      return CellRows{
          {{fmt_fixed(ns[kSteps].mean(), 1), fmt_fixed(es[kSteps].mean(), 1),
            fmt_fixed(ns[kSteps].mean() / es[kSteps].mean(), 3),
            fmt_sci(ns[kValue].population_variance(), 3),
            fmt_sci(es[kValue].population_variance(), 3)}},
          {}};
    };
  }
};
OPINDYN_REGISTER_SCENARIO(NodeVsEdgeScenario)

/// Submits the spectral Prop. B.1 prediction of a NodeModel cell as a
/// one-replica batch.  The walk spectrum it reads is declared
/// (reads_spectra), so the runner's solve unit, queued ahead of the
/// cells, computes it on the pool alongside the replicas; this unit
/// reads the memo or waits on the solve in flight.
/// Metrics: [0] = 1 - lambda2(P), [1] = predicted T, [2] = theorem scale.
std::shared_ptr<ReplicaBatch> submit_node_prediction(
    const RunInput& in, const ModelConfig& config) {
  return in.scheduler.submit(
      1, subseed(in.spec.seed, 0x9d), 3,
      [in, config](std::int64_t, Rng&, std::span<double> out, RowEmitter&) {
        const WalkSpectrum& spectrum = in.spectra.walk();
        OpinionState probe(in.graph, in.initial);
        out[0] = spectrum.gap;
        out[1] = theory::steps_to_epsilon(
            theory::node_model_rho(spectrum.lambda2, config.alpha, config.k,
                                   in.graph.node_count(), config.lazy),
            probe.phi_exact(), in.spec.convergence.epsilon);
        out[2] = theory::node_convergence_bound(
            in.graph.node_count(), initial::l2_squared(in.initial),
            in.spec.convergence.epsilon, spectrum.lambda2);
      });
}

/// Formats the row of a NodePredictionScenario cell from the measured
/// T_eps statistics and the submit_node_prediction batch.
using PredictionColumns = std::vector<std::string> (*)(
    const RunningStats& steps, ReplicaBatch& prediction);

/// NodeModel T_eps against the spectral Prop. B.1 prediction: one
/// measured batch and one prediction batch per cell, formatted by the
/// registration's column adapter (k_ablation, thm22_convergence).
class NodePredictionScenario final : public Scenario {
 public:
  NodePredictionScenario(std::string name, std::string description,
                         std::vector<std::string> columns,
                         PredictionColumns format)
      : name_(std::move(name)),
        description_(std::move(description)),
        columns_(std::move(columns)),
        format_(format) {}

  std::string name() const override { return name_; }
  std::string description() const override { return description_; }
  std::vector<std::string> columns() const override { return columns_; }
  SpectrumNeeds reads_spectra() const override {
    return {.walk = true};
  }
  CellFold start(const RunInput& in) const override {
    const ModelConfig config =
        config_for_kind(in.spec.model, ModelKind::node);
    auto measured = submit_converging(in, config, in.spec.convergence);
    auto prediction = submit_node_prediction(in, config);
    return [measured, prediction, format = format_] {
      return CellRows{{format(measured->stats()[kSteps], *prediction)}, {}};
    };
  }

 private:
  std::string name_;
  std::string description_;
  std::vector<std::string> columns_;
  PredictionColumns format_;
};

/// k_ablation: sweep k to get the remark after Theorem 2.2 ((1 + 1/k)
/// dependence).
std::vector<std::string> k_ablation_columns(const RunningStats& steps,
                                            ReplicaBatch& prediction) {
  const double predicted = prediction.sample(0, 1);
  return {fmt_fixed(steps.mean(), 1), fmt_fixed(steps.mean_ci_halfwidth(), 1),
          fmt_fixed(predicted, 1), fmt_fixed(steps.mean() / predicted, 3)};
}
OPINDYN_REGISTER_SCENARIO_AS(
    k_ablation, NodePredictionScenario, "k_ablation",
    "NodeModel T_eps vs the Prop B.1 prediction; sweep k (and "
    "sampling) for the remark after Thm 2.2.",
    std::vector<std::string>{"T_eps", "+-CI(T)", "T predicted (B.1)",
                             "measured/predicted"},
    k_ablation_columns)

/// thm22_convergence: also against the Theorem 2.2(1) scale
/// n log(n ||xi||^2 / eps) / (1 - lambda2(P)) -- the engine port of
/// bench_thm22_convergence; sweep graph / n / alpha / k to reproduce its
/// three tables.
std::vector<std::string> thm22_convergence_columns(const RunningStats& steps,
                                                   ReplicaBatch& prediction) {
  const double predicted = prediction.sample(0, 1);
  return {fmt_sci(prediction.sample(0, 0), 2),
          fmt_fixed(steps.mean(), 0),
          fmt_fixed(steps.mean_ci_halfwidth(), 0),
          fmt_fixed(predicted, 0),
          fmt_fixed(prediction.sample(0, 2), 0),
          fmt_fixed(steps.mean() / predicted, 3)};
}
OPINDYN_REGISTER_SCENARIO_AS(
    thm22_convergence, NodePredictionScenario, "thm22_convergence",
    "Thm 2.2(1): NodeModel T_eps vs the exact B.1 prediction and "
    "the theorem's n log(n||xi||^2/eps)/(1-lambda2) scale.",
    std::vector<std::string>{"1-l2(P)", "T measured", "+-CI(T)",
                             "T predicted (B.1)", "theorem scale",
                             "meas/pred"},
    thm22_convergence_columns)

/// The w.h.p. tail of Theorems 2.2(1)/2.4(1): per-replica T_eps rows
/// (the first streaming consumer) plus quantiles normalised by the
/// median for both models -- the engine port of bench_whp_tail.
class WhpTailScenario final : public Scenario {
 public:
  std::string name() const override { return "whp_tail"; }
  std::string description() const override {
    return "WHP tail of T_eps (Thms 2.2/2.4): per-replica convergence "
           "times streamed as rows; quantiles over the median per model.";
  }
  std::vector<std::string> columns() const override {
    return {"model", "median T", "q90/median", "q99/median", "max/median"};
  }
  std::vector<std::string> row_columns() const override {
    return {"model", "replica", "T_eps", "T/median"};
  }
  CellFold start(const RunInput& in) const override {
    std::array<std::shared_ptr<ReplicaBatch>, 2> batches;
    for (int i = 0; i < 2; ++i) {
      const ModelKind kind = i == 0 ? ModelKind::node : ModelKind::edge;
      const ModelConfig config = config_for_kind(in.spec.model, kind);
      // The EdgeModel tail analysis (Prop. D.1) is stated for the plain
      // potential, as in the original bench.
      ConvergenceOptions convergence = in.spec.convergence;
      convergence.use_plain_potential =
          kind == ModelKind::edge || convergence.use_plain_potential;
      batches[i] = submit_converging(in, config, convergence, i);
    }
    const RowStream* const stream = in.rows;
    return [batches, stream] {
      CellRows rows;
      RowEmitter streamed =
          stream != nullptr ? stream->emitter() : RowEmitter();
      for (int i = 0; i < 2; ++i) {
        const std::string model = i == 0 ? "NodeModel" : "EdgeModel";
        ReplicaBatch& batch = *batches[i];
        std::vector<double> times;
        times.reserve(static_cast<std::size_t>(batch.replicas()));
        for (std::int64_t r = 0; r < batch.replicas(); ++r) {
          times.push_back(batch.sample(r, kSteps));
        }
        std::sort(times.begin(), times.end());
        const auto quantile = [&times](double q) {
          return times[static_cast<std::size_t>(
              q * static_cast<double>(times.size()))];
        };
        const double median = times[times.size() / 2];
        rows.aggregate.push_back({model, fmt_fixed(median, 0),
                                  fmt_fixed(quantile(0.90) / median, 3),
                                  fmt_fixed(quantile(0.99) / median, 3),
                                  fmt_fixed(times.back() / median, 3)});
        if (stream == nullptr) {
          continue;
        }
        for (std::int64_t r = 0; r < batch.replicas(); ++r) {
          const double t = batch.sample(r, kSteps);
          streamed.row().text(model).integer(r).fixed(t, 0).fixed(
              t / median, 4);
        }
      }
      rows.replica = streamed.take();
      return rows;
    };
  }
};
OPINDYN_REGISTER_SCENARIO(WhpTailScenario)

/// Streams the NodeModel martingale M(t) and potential phi(t) at fixed
/// checkpoints for every replica -- the trajectory / histogram workload
/// behind Fig. 1-style decay plots.  Checkpoints run every
/// `check-interval` steps (0 = n/4) up to `horizon` (0 = 16n).
class TrajectoryScenario final : public Scenario {
 public:
  std::string name() const override { return "trajectory"; }
  std::string description() const override {
    return "Streams per-replica (step, M, phi) rows every check-interval "
           "steps up to horizon; aggregates the final state.";
  }
  std::vector<std::string> columns() const override {
    return {"rows/replica", "final E[M]", "final E[phi]"};
  }
  std::vector<std::string> row_columns() const override {
    return {"replica", "step", "M", "phi"};
  }
  CellFold start(const RunInput& in) const override {
    const std::int64_t n = in.graph.node_count();
    const std::int64_t horizon =
        in.spec.horizon > 0 ? in.spec.horizon : 16 * n;
    const std::int64_t stride = in.spec.convergence.check_interval > 0
                                    ? in.spec.convergence.check_interval
                                    : std::max<std::int64_t>(1, n / 4);
    const ModelConfig config =
        config_for_kind(in.spec.model, ModelKind::node);
    auto batch = in.scheduler.submit(
        in.spec.replicas, in.spec.seed, 2,
        [in, config, horizon, stride](std::int64_t r, Rng& rng,
                                      std::span<double> out,
                                      RowEmitter& rows) {
          auto process = make_process(in.graph, config, in.initial);
          const OpinionState& state = process->state();
          for (std::int64_t t = 0; t <= horizon; t += stride) {
            // One poll per checkpoint: a cancelled replica stops between
            // rows and delivers none of them.
            cancel::poll();
            process->step_burst(rng, t - process->time());
            if (in.rows != nullptr) {
              // The printed digits of phi from its O(1) certified
              // bounds; the O(n) pass runs only when they straddle one.
              const OpinionState::Bounds phi = state.phi_bounds(false);
              rows.row()
                  .integer(r)
                  .integer(t)
                  .general(state.weighted_average())
                  .sci_certified(phi.lo, phi.hi, 4,
                                 [&state] { return state.phi_exact(); });
            }
          }
          out[0] = state.weighted_average();
          out[1] = state.phi_exact();
          metrics::count("engine.steps", process->time());
        },
        in.rows);
    const std::int64_t per_replica = horizon / stride + 1;
    return [batch, per_replica] {
      const std::vector<RunningStats>& stats = batch->stats();
      CellRows rows;
      rows.aggregate.push_back({std::to_string(per_replica),
                                fmt(stats[0].mean()),
                                fmt_sci(stats[1].mean(), 4)});
      return rows;
    };
  }
};
OPINDYN_REGISTER_SCENARIO(TrajectoryScenario)

/// Discrete voter model run to consensus, through the same
/// AveragingProcess machinery as every other kind.
class VoterScenario final : public Scenario {
 public:
  std::string name() const override { return "voter"; }
  std::string description() const override {
    return "Voter model: n distinct opinions to consensus "
           "(the k=1, alpha=0 special case of Def 2.1).";
  }
  std::vector<std::string> columns() const override {
    return {"consensus T", "+-CI(T)", "consensus rate"};
  }
  CellFold start(const RunInput& in) const override {
    auto batch = submit_converging(
        in, config_for_kind(in.spec.model, ModelKind::voter),
        in.spec.convergence);
    return [batch] {
      const std::vector<RunningStats>& stats = batch->stats();
      return CellRows{{{fmt_fixed(stats[kHitSteps].mean(), 1),
                        fmt_fixed(stats[kHitSteps].mean_ci_halfwidth(), 1),
                        fmt_fixed(stats[kConverged].mean(), 3)}},
                      {}};
    };
  }
};
OPINDYN_REGISTER_SCENARIO(VoterScenario)

/// Coordinated pairwise gossip baseline (Boyd et al.).
class GossipScenario final : public Scenario {
 public:
  std::string name() const override { return "gossip"; }
  std::string description() const override {
    return "Pairwise-averaging gossip baseline: doubly stochastic, "
           "preserves Avg exactly (Var(F) = 0).";
  }
  std::vector<std::string> columns() const override {
    return {"E[F]", "Var(F)", "T_eps", "+-CI(T)", "avg drift"};
  }
  CellFold start(const RunInput& in) const override {
    const ModelConfig config =
        config_for_kind(in.spec.model, ModelKind::gossip);
    // Gossip conserves the plain average exactly, so it stops on the
    // plain potential and reports Avg (not the degree-weighted M that
    // submit_converging records) for E[F] and the drift.
    ConvergenceOptions convergence = in.spec.convergence;
    convergence.use_plain_potential = true;
    auto batch = in.scheduler.submit(
        in.spec.replicas, in.spec.seed, 3,
        [in, config, convergence](std::int64_t, Rng& rng,
                                  std::span<double> out, RowEmitter&) {
          auto process = make_process(in.graph, config, in.initial);
          const double start = process->state().average();
          const ConvergenceResult res =
              run_until_converged(*process, rng, convergence);
          out[0] = process->state().average();
          out[1] = static_cast<double>(res.steps);
          out[2] = std::abs(out[0] - start);
        });
    return [batch] {
      const std::vector<RunningStats>& stats = batch->stats();
      return CellRows{
          {{fmt(stats[0].mean()), fmt_sci(stats[0].population_variance(), 3),
            fmt_fixed(stats[1].mean(), 1),
            fmt_fixed(stats[1].mean_ci_halfwidth(), 1),
            fmt_sci(stats[2].mean(), 2)}},
          {}};
    };
  }
};
OPINDYN_REGISTER_SCENARIO(GossipScenario)

/// DeGroot baseline: synchronous and deterministic, so one run suffices
/// (wrapped in a one-replica batch so the cell still runs on the pool).
class DeGrootScenario final : public Scenario {
 public:
  std::string name() const override { return "degroot"; }
  std::string description() const override {
    return "DeGroot baseline (Section 3): deterministic synchronous "
           "rounds to the degree-weighted average, zero variance.";
  }
  std::vector<std::string> columns() const override {
    return {"rounds", "limit", "|limit - M(0)|", "final spread"};
  }
  CellFold start(const RunInput& in) const override {
    auto batch = in.scheduler.submit(
        1, in.spec.seed, 4,
        [in](std::int64_t, Rng&, std::span<double> out, RowEmitter&) {
          DeGrootModel model(in.graph, in.initial, /*lazy=*/true);
          const double eps = in.spec.convergence.epsilon;
          const std::int64_t max_rounds = in.spec.convergence.max_steps;
          while (model.discrepancy() > eps && model.rounds() < max_rounds) {
            model.round();
          }
          const double m0 = degree_weighted_average(in.graph, in.initial);
          out[0] = static_cast<double>(model.rounds());
          out[1] = model.values()[0];
          out[2] = std::abs(model.values()[0] - m0);
          out[3] = model.discrepancy();
        });
    return [batch] {
      return CellRows{
          {{std::to_string(
                static_cast<std::int64_t>(batch->sample(0, 0))),
            fmt(batch->sample(0, 1)), fmt_sci(batch->sample(0, 2), 2),
            fmt_sci(batch->sample(0, 3), 2)}},
          {}};
    };
  }
};
OPINDYN_REGISTER_SCENARIO(DeGrootScenario)

/// Friedkin-Johnsen baseline: converges to persistent disagreement.
/// `alpha` doubles as the susceptibility lambda.
class FriedkinJohnsenScenario final : public Scenario {
 public:
  std::string name() const override { return "friedkin_johnsen"; }
  std::string description() const override {
    return "Friedkin-Johnsen baseline (Section 3): stubborn agents, "
           "no consensus; alpha is the susceptibility lambda.";
  }
  std::vector<std::string> columns() const override {
    return {"rounds", "mean z*", "z* spread", "final distance"};
  }
  CellFold start(const RunInput& in) const override {
    auto batch = in.scheduler.submit(
        1, in.spec.seed, 4,
        [in](std::int64_t, Rng&, std::span<double> out, RowEmitter&) {
          FriedkinJohnsen model(in.graph, in.initial, in.spec.model.alpha);
          const std::vector<double> star = model.equilibrium();
          const double eps = in.spec.convergence.epsilon;
          const std::int64_t max_rounds = in.spec.convergence.max_steps;
          while (model.distance_to(star) > eps &&
                 model.rounds() < max_rounds) {
            model.round();
          }
          double lo = star[0];
          double hi = star[0];
          double mean = 0.0;
          for (const double z : star) {
            lo = std::min(lo, z);
            hi = std::max(hi, z);
            mean += z / static_cast<double>(star.size());
          }
          out[0] = static_cast<double>(model.rounds());
          out[1] = mean;
          out[2] = hi - lo;
          out[3] = model.distance_to(star);
        });
    return [batch] {
      return CellRows{
          {{std::to_string(
                static_cast<std::int64_t>(batch->sample(0, 0))),
            fmt(batch->sample(0, 1)), fmt(batch->sample(0, 2)),
            fmt_sci(batch->sample(0, 3), 2)}},
          {}};
    };
  }
};
OPINDYN_REGISTER_SCENARIO(FriedkinJohnsenScenario)

/// The Section-2 remark race: voter model and coalescing walks vs the
/// NodeModel run to eps = 1/n^2 (so eps and K are poly(n)).
class AveragingVsVoterScenario final : public Scenario {
 public:
  std::string name() const override { return "averaging_vs_voter"; }
  std::string description() const override {
    return "Race: voter consensus + coalescing walks vs NodeModel to "
           "eps = 1/n^2; speed-up ~ n/log n (Section 2 remark).";
  }
  std::vector<std::string> columns() const override {
    return {"voter T", "coalescence T", "averaging T", "speed-up",
            "n/log n"};
  }
  CellFold start(const RunInput& in) const override {
    const ExperimentSpec& spec = in.spec;
    const double n = static_cast<double>(in.graph.node_count());

    auto voter = submit_converging(
        in, config_for_kind(spec.model, ModelKind::voter), spec.convergence,
        1);

    auto coalescence = in.scheduler.submit(
        spec.replicas, subseed(spec.seed, 2), 1,
        [in](std::int64_t, Rng& rng, std::span<double> out, RowEmitter&) {
          const CoalescenceResult res = run_to_coalescence(
              in.graph, rng, in.spec.convergence.max_steps);
          if (res.coalesced) {
            out[0] = static_cast<double>(res.steps);
          }
        });

    ConvergenceOptions convergence = spec.convergence;
    convergence.epsilon = 1.0 / (n * n);
    auto averaging = submit_converging(
        in, config_for_kind(spec.model, ModelKind::node), convergence);

    return [voter, coalescence, averaging, n] {
      const double voter_mean = voter->stats()[kHitSteps].mean();
      const double averaging_mean = averaging->stats()[kSteps].mean();
      return CellRows{
          {{fmt_fixed(voter_mean, 1),
            fmt_fixed(coalescence->stats()[0].mean(), 1),
            fmt_fixed(averaging_mean, 1),
            fmt_fixed(voter_mean / averaging_mean, 2),
            fmt_fixed(n / std::log(n), 2)}},
          {}};
    };
  }
};
OPINDYN_REGISTER_SCENARIO(AveragingVsVoterScenario)

/// The Section-1 "price of simplicity" comparison: three rows per work
/// item (gossip / NodeModel / EdgeModel) on the same input.
class GossipVsUnilateralScenario final : public Scenario {
 public:
  std::string name() const override { return "gossip_vs_unilateral"; }
  std::string description() const override {
    return "Price of simplicity (Section 1): coordinated gossip "
           "(Var = 0) vs the unilateral models (Var ~ Prop 5.8).";
  }
  std::vector<std::string> columns() const override {
    return {"protocol", "E[F]", "Var(F)", "T_eps", "predicted Var (P5.8)",
            "coordinated?"};
  }
  CellFold start(const RunInput& in) const override {
    const ExperimentSpec& spec = in.spec;
    // Gossip preserves Avg exactly, so its stopping rule is stated for
    // the plain potential (as the original hand-rolled bench did).
    ConvergenceOptions gossip_convergence = spec.convergence;
    gossip_convergence.use_plain_potential = true;
    auto gossip = submit_converging(
        in, config_for_kind(spec.model, ModelKind::gossip),
        gossip_convergence, 1);
    auto node_batch = submit_converging(
        in, config_for_kind(spec.model, ModelKind::node), spec.convergence, 0);
    auto edge_batch = submit_converging(
        in, config_for_kind(spec.model, ModelKind::edge), spec.convergence, 2);

    return [in, gossip, node_batch, edge_batch] {
      std::vector<std::vector<std::string>> rows;
      const std::vector<RunningStats>& gs = gossip->stats();
      rows.push_back({"pairwise gossip", fmt_sci(gs[kValue].mean(), 2),
                      fmt_sci(gs[kValue].population_variance(), 2),
                      fmt_fixed(gs[kSteps].mean(), 1), fmt_sci(0.0, 2),
                      "yes"});

      // Prop. 5.8 is stated for regular graphs and the NodeModel only.
      const std::string predicted =
          in.graph.is_regular()
              ? fmt_sci(theory::variance_exact(in.graph, in.spec.model.alpha,
                                               in.spec.model.k, in.initial),
                        2)
              : "n/a";
      const std::pair<const char*, std::shared_ptr<ReplicaBatch>> models[] =
          {{"NodeModel", node_batch}, {"EdgeModel", edge_batch}};
      for (const auto& [label, batch] : models) {
        const std::vector<RunningStats>& s = batch->stats();
        rows.push_back({label, fmt_sci(s[kValue].mean(), 2),
                        fmt_sci(s[kValue].population_variance(), 2),
                        fmt_fixed(s[kSteps].mean(), 1),
                        std::string(label) == "NodeModel" ? predicted
                                                          : "n/a",
                        "no"});
      }
      return CellRows{std::move(rows), {}};
    };
  }
};
OPINDYN_REGISTER_SCENARIO(GossipVsUnilateralScenario)

/// Runs one model to eps-convergence and aggregates the standard
/// averaging columns.  Registered as `cross_model`, it runs whatever
/// `model=` selects verbatim -- the one scenario where the model kind
/// itself is a sweep axis (`--sweep=model:node,edge,voter,
/// weighted_median`) -- and streams one (replica, F, T_eps) row per
/// replica for the histogram / quantile sinks.  The single-model
/// registrations force their kind through config_for_kind (which drops
/// the knobs that kind does not read), optionally make it lazy, and
/// stream nothing.
class CrossModelScenario final : public Scenario {
 public:
  CrossModelScenario(std::string name, std::string description,
                     std::optional<ModelKind> forced = std::nullopt,
                     bool lazy = false)
      : name_(std::move(name)),
        description_(std::move(description)),
        forced_(forced),
        lazy_(lazy) {}

  std::string name() const override { return name_; }
  std::string description() const override { return description_; }
  std::vector<std::string> columns() const override {
    return {"E[F]", "+-CI(F)", "Var(F)", "T_eps", "+-CI(T)", "diverged"};
  }
  std::vector<std::string> row_columns() const override {
    if (forced_.has_value()) {
      return {};
    }
    return {"replica", "F", "T_eps"};
  }
  CellFold start(const RunInput& in) const override {
    ModelConfig config = in.spec.model;
    if (forced_.has_value()) {
      config = config_for_kind(config, *forced_);
      config.lazy = config.lazy || lazy_;
    }
    // Validate up front so a bad model/knob combination fails before
    // any replica is scheduled (one line, to the CLI).
    validate_model_config(config);
    auto batch = submit_converging(in, config, in.spec.convergence, 0,
                                   in.rows);
    return [batch] { return CellRows{{averaging_row(*batch)}, {}}; };
  }

 private:
  std::string name_;
  std::string description_;
  std::optional<ModelKind> forced_;
  bool lazy_;
};
OPINDYN_REGISTER_SCENARIO_AS(
    cross_model, CrossModelScenario, "cross_model",
    "Runs the model= kind verbatim (model is a sweep axis here); "
    "aggregate F/T_eps plus per-replica streamed rows.")

/// NodeModel (Definition 2.1) run to eps-convergence.
OPINDYN_REGISTER_SCENARIO_AS(
    node, CrossModelScenario, "node",
    "NodeModel (Def 2.1): random node averages with k sampled "
    "neighbours; reports F and T_eps (Thm 2.2).",
    ModelKind::node)

/// EdgeModel (Definition 2.3) run to eps-convergence.
OPINDYN_REGISTER_SCENARIO_AS(
    edge, CrossModelScenario, "edge",
    "EdgeModel (Def 2.3): one endpoint of a random arc moves "
    "toward the other; reports F and T_eps (Thm 2.4).",
    ModelKind::edge)

/// Lazy NodeModel: each step is a fair-coin no-op (the Appendix-B
/// analysis variant; doubles T_eps, leaves F unchanged).
OPINDYN_REGISTER_SCENARIO_AS(
    lazy, CrossModelScenario, "lazy",
    "Lazy NodeModel: fair-coin no-op per step (Prop B.1 variant); "
    "same F, ~2x T_eps.",
    ModelKind::node, /*lazy=*/true)

/// Weighted-median dynamics (arXiv:1909.06474) run to eps-convergence:
/// the median is not an average, so F concentrates differently and the
/// centered potential can stall on bimodal inputs -- watch `diverged`.
OPINDYN_REGISTER_SCENARIO_AS(
    weighted_median, CrossModelScenario, "weighted_median",
    "Weighted-median dynamics: random node moves to the lower "
    "median of k sampled neighbours; reports F and T_eps.",
    ModelKind::weighted_median)

/// Hegselmann-Krause bounded confidence (arXiv:1910.14465) over a fixed
/// horizon: HK fragments into clusters instead of converging, so the
/// interesting read is the cluster count, not T_eps.
class HegselmannKrauseScenario final : public Scenario {
 public:
  std::string name() const override { return "hegselmann_krause"; }
  std::string description() const override {
    return "Hegselmann-Krause bounded confidence: cluster count and "
           "spread after a fixed horizon; confidence= sets the bound.";
  }
  std::vector<std::string> columns() const override {
    return {"E[clusters]", "+-CI(clusters)", "E[spread]", "E[F]"};
  }
  CellFold start(const RunInput& in) const override {
    const std::int64_t n = in.graph.node_count();
    const std::int64_t horizon =
        in.spec.horizon > 0 ? in.spec.horizon : 16 * n;
    HegselmannKrauseParams params;
    // A spec that never mentions confidence= still runs: fall back to
    // the params default instead of rejecting confidence == 0.
    if (in.spec.model.confidence > 0.0) {
      params.confidence = in.spec.model.confidence;
    }
    params.lazy = in.spec.model.lazy;
    auto batch = in.scheduler.submit(
        in.spec.replicas, in.spec.seed, 3,
        [in, params, horizon](std::int64_t, Rng& rng,
                              std::span<double> out, RowEmitter&) {
          HegselmannKrauseModel model(in.graph, in.initial, params);
          model.step_burst(rng, horizon);
          out[0] = static_cast<double>(model.cluster_count());
          out[1] = model.state().discrepancy();
          out[2] = model.state().weighted_average();
          metrics::count("engine.steps", horizon);
        });
    return [batch] {
      const std::vector<RunningStats>& stats = batch->stats();
      return CellRows{{{fmt_fixed(stats[0].mean(), 2),
                        fmt_fixed(stats[0].mean_ci_halfwidth(), 2),
                        fmt_sci(stats[1].mean(), 3),
                        fmt(stats[2].mean())}},
                      {}};
    };
  }
};
OPINDYN_REGISTER_SCENARIO(HegselmannKrauseScenario)

}  // namespace

void register_builtin_scenarios() {
  // Registration happens through the file-level registrars above when
  // this translation unit is linked; referencing this symbol from the
  // runner keeps the unit alive in static-library builds.
  register_paper_scenarios();
}

}  // namespace engine
}  // namespace opindyn
