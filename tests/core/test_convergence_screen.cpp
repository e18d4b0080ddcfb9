// The certified O(1) bounds on the potential (OpinionState::phi_bounds),
// the convergence screen that reads them (phi_certainly_above) and the
// magnitude bound they rest on.
//
//  * Bracketing: lo <= exact <= hi at every burst boundary, for both
//    potentials, over the variant grid on a regular and an irregular
//    graph, at magnitudes up to 1e6, with a 1e3 offset mean, with
//    values deep in the subnormal range, and with the drift count K
//    straddling the 2^20 recompute boundary -- and the interval is
//    tight enough to print phi's leading digits on most of them.
//  * Soundness: whenever the screen says "above eps", the exact centered
//    pass really is above eps -- checked at every convergence check of a
//    reference loop that always runs the exact pass, and at every burst
//    boundary with eps set to the exact value itself.
//  * Identity: run_until_converged (screen first) and the reference loop
//    agree on steps, converged, and the bits of final_phi / final_value
//    over the burst-equivalence variant grid of the kinds that stop on
//    phi, both potentials, and
//    adversarial inputs (eps down to 1e-15, magnitudes 1e6, a 1e3 offset
//    mean, check intervals straddling the 2^20 recompute boundary).
//  * The proof obligation behind the bound V: at burst boundaries every
//    kind keeps max|xi| within V (1 + kValueBoundSlack), and the
//    weighted-median and Hegselmann-Krause ranges never expand.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/convergence.h"
#include "src/core/initial_values.h"
#include "src/core/model.h"
#include "src/graph/generators.h"
#include "src/support/rng.h"

namespace opindyn {
namespace {

constexpr std::int64_t kRecomputeInterval = std::int64_t{1} << 20;

/// run_until_converged's schedule with the exact pass at every check,
/// asserting at each one that a screen "above" verdict is true.
struct ReferenceRun {
  ConvergenceResult result;
  std::int64_t checks = 0;
  std::int64_t screened = 0;  // checks the screen settled
};

ReferenceRun reference_run(AveragingProcess& process, Rng& rng,
                           const ConvergenceOptions& options) {
  std::int64_t interval = options.check_interval;
  if (interval <= 0) {
    interval = std::max<std::int64_t>(1, process.graph().node_count() / 4);
  }
  const bool plain = options.use_plain_potential;
  ReferenceRun run;
  const auto check = [&] {
    const double exact =
        plain ? process.state().phi_plain_exact() : process.state().phi_exact();
    const OpinionState::Bounds bounds = process.state().phi_bounds(plain);
    EXPECT_LE(bounds.lo, exact) << "t=" << process.time();
    EXPECT_GE(bounds.hi, exact) << "t=" << process.time();
    ++run.checks;
    if (process.state().phi_certainly_above(options.epsilon, plain)) {
      ++run.screened;
      EXPECT_GT(exact, options.epsilon) << "screen unsound at t="
                                        << process.time();
    }
    return exact <= options.epsilon;
  };
  const std::int64_t start = process.time();
  bool done = check();
  while (!done && process.time() - start < options.max_steps) {
    process.step_burst(
        rng, std::min(interval, options.max_steps - (process.time() - start)));
    done = check();
  }
  run.result.steps = process.time() - start;
  run.result.converged = done;
  run.result.final_phi =
      plain ? process.state().phi_plain_exact() : process.state().phi_exact();
  run.result.final_value = process.state().weighted_average();
  return run;
}

/// Runs the screened and the reference loop from the same seed and
/// asserts identical results; returns the reference's tallies.
ReferenceRun expect_screen_transparent(const Graph& g,
                                       const ModelConfig& config,
                                       const std::vector<double>& xi,
                                       const ConvergenceOptions& options,
                                       std::uint64_t seed) {
  auto screened = make_process(g, config, xi);
  auto reference = make_process(g, config, xi);
  Rng rng_screened(seed);
  Rng rng_reference(seed);
  const ConvergenceResult got =
      run_until_converged(*screened, rng_screened, options);
  const ReferenceRun want = reference_run(*reference, rng_reference, options);
  EXPECT_EQ(got.steps, want.result.steps);
  EXPECT_EQ(got.converged, want.result.converged);
  // Bits, not tolerances: the screen must be invisible.
  EXPECT_EQ(got.final_phi, want.result.final_phi);
  EXPECT_EQ(got.final_value, want.result.final_value);
  EXPECT_EQ(rng_screened(), rng_reference());
  // Every exact pass the screened run paid for is one the screen could
  // not settle.
  EXPECT_EQ(screened->exact_checks(), want.checks - want.screened);
  return want;
}

/// Every knob combination validate_model_config accepts, for the kinds
/// with continuous opinions (all but voter).  DeGroot and
/// Friedkin-Johnsen carry a potential too but stop on their own rule.
std::vector<ModelConfig> variant_grid(double confidence) {
  std::vector<ModelConfig> grid;
  for (const ModelKind kind :
       {ModelKind::node, ModelKind::edge, ModelKind::gossip,
        ModelKind::degroot, ModelKind::friedkin_johnsen,
        ModelKind::weighted_median, ModelKind::hegselmann_krause}) {
    for (const std::int64_t k : {1, 2, 4, 8}) {
      for (const SamplingMode sampling :
           {SamplingMode::without_replacement,
            SamplingMode::with_replacement}) {
        for (const bool lazy : {false, true}) {
          ModelConfig config;
          config.kind = kind;
          config.k = k;
          config.sampling = sampling;
          config.lazy = lazy;
          if (kind == ModelKind::hegselmann_krause) {
            config.confidence = confidence;
          }
          try {
            validate_model_config(config);
          } catch (const std::runtime_error&) {
            continue;  // a knob this kind does not use
          }
          grid.push_back(config);
        }
      }
    }
  }
  return grid;
}

std::string describe(const ModelConfig& c) {
  return model_kind_name(c.kind) + " k=" + std::to_string(c.k) +
         " with_replacement=" +
         std::to_string(c.sampling == SamplingMode::with_replacement) +
         " lazy=" + std::to_string(c.lazy);
}

struct Input {
  const char* name;
  double mean;
  double stddev;
};

// Centred unit data, large magnitudes, and an offset mean where the
// running sums hold S >> phi and cancellation is worst.
constexpr Input kInputs[] = {
    {"gaussian", 0.0, 1.0}, {"magnitude_1e6", 0.0, 1e6}, {"offset_1e3", 1e3, 1.0}};

std::vector<Graph> min_degree_8_graphs() {
  Rng graph_rng(2024);
  std::vector<Graph> graphs;
  graphs.push_back(gen::circulant(48, {1, 2, 3, 5}));  // 8-regular
  graphs.push_back(gen::preferential_attachment(graph_rng, 48, 8));
  return graphs;
}

TEST(ConvergenceScreen, RunUntilConvergedMatchesExactEveryCheckReference) {
  std::int64_t checks = 0;
  std::int64_t screened = 0;
  const std::vector<Graph> graphs = min_degree_8_graphs();
  std::uint64_t seed = 1;
  for (const Input& input : kInputs) {
    const std::vector<ModelConfig> grid = variant_grid(4.0 * input.stddev);
    for (const Graph& g : graphs) {
      Rng init_rng(seed);
      const std::vector<double> xi =
          initial::gaussian(init_rng, g.node_count(), input.mean, input.stddev);
      for (const ModelConfig& config : grid) {
        if (config.kind == ModelKind::degroot ||
            config.kind == ModelKind::friedkin_johnsen) {
          continue;  // not a phi stop: see StopRule in test_degroot_fj
        }
        for (const bool plain : {false, true}) {
          for (const double eps : {1e-15, 1e-12, 1e-9, 1e-6}) {
            SCOPED_TRACE(std::string(input.name) + " " + g.name() + " " +
                         describe(config) + " plain=" + std::to_string(plain) +
                         " eps=" + std::to_string(eps));
            ConvergenceOptions options;
            options.epsilon = eps;
            options.max_steps = 20000;
            options.use_plain_potential = plain;
            const ReferenceRun run =
                expect_screen_transparent(g, config, xi, options, ++seed);
            checks += run.checks;
            screened += run.screened;
          }
        }
      }
    }
  }
  // The grid must actually exercise the screen: most checks happen far
  // above eps, and the screen settles them.
  EXPECT_GT(screened, checks / 2) << screened << " of " << checks;
}

TEST(ConvergenceScreen, CheckIntervalsStraddlingTheRecomputeBoundary) {
  // A slow mixer (cycle), so several checks land at K near 2^20.
  const Graph g = gen::cycle(128);
  std::uint64_t seed = 100;
  for (const Input& input : kInputs) {
    Rng init_rng(seed);
    const std::vector<double> xi =
        initial::gaussian(init_rng, g.node_count(), input.mean, input.stddev);
    for (const std::int64_t interval :
         {kRecomputeInterval - 1, kRecomputeInterval, kRecomputeInterval + 1}) {
      for (const ModelKind kind : {ModelKind::node, ModelKind::edge}) {
        for (const bool plain : {false, true}) {
          SCOPED_TRACE(std::string(input.name) + " interval=" +
                       std::to_string(interval) + " " + model_kind_name(kind) +
                       " plain=" + std::to_string(plain));
          ModelConfig config;
          config.kind = kind;
          ConvergenceOptions options;
          options.epsilon = 1e-6;
          options.check_interval = interval;
          options.max_steps = 6 * kRecomputeInterval;
          options.use_plain_potential = plain;
          expect_screen_transparent(g, config, xi, options, ++seed);
        }
      }
    }
  }
}

TEST(ConvergenceScreen, NeverCertifiesTheExactValueItself) {
  // At eps = exact phi the claim "exact > eps" is false, so the screen
  // must abstain -- at every burst boundary, whatever the drift.  Odd
  // burst lengths walk K through the recompute window (most of it for
  // the cheap node/edge kernels; the synchronous-round kinds pay O(m)
  // per step, so they take shorter bursts).
  const std::vector<Graph> graphs = min_degree_8_graphs();
  std::uint64_t seed = 500;
  for (const Input& input : kInputs) {
    for (const Graph& g : graphs) {
      for (const ModelConfig& config : variant_grid(4.0 * input.stddev)) {
        SCOPED_TRACE(std::string(input.name) + " " + g.name() + " " +
                     describe(config));
        Rng init_rng(seed);
        auto process = make_process(
            g, config,
            initial::gaussian(init_rng, g.node_count(), input.mean,
                              input.stddev));
        Rng rng(++seed);
        const bool cheap =
            config.kind == ModelKind::node || config.kind == ModelKind::edge;
        for (int burst = 0; burst < 40; ++burst) {
          process->step_burst(rng, 1 + (cheap ? 977 : 31) * burst);
          for (const bool plain : {false, true}) {
            const OpinionState& s = process->state();
            const double exact = plain ? s.phi_plain_exact() : s.phi_exact();
            if (exact > 0.0) {
              ASSERT_FALSE(s.phi_certainly_above(exact, plain))
                  << "t=" << process->time() << " plain=" << plain;
            }
          }
        }
      }
    }
  }
}

/// Among the potentials still above a tenth of their initial value,
/// those whose interval is narrower than 1e-5 relative: tight enough to
/// settle most of the row channel's printed digits.
struct Tally {
  double floor[2] = {0.0, 0.0};  // by `plain`
  int decaying = 0;
  int tight = 0;
};

/// Asserts lo <= exact <= hi for both potentials at the current state,
/// and counts into `tally` when one is given.
void expect_bracketed(const AveragingProcess& process,
                      Tally* tally = nullptr) {
  for (const bool plain : {false, true}) {
    const OpinionState& s = process.state();
    const double exact = plain ? s.phi_plain_exact() : s.phi_exact();
    const OpinionState::Bounds b = s.phi_bounds(plain);
    EXPECT_LE(b.lo, exact) << "t=" << process.time() << " plain=" << plain;
    EXPECT_GE(b.hi, exact) << "t=" << process.time() << " plain=" << plain;
    if (tally != nullptr && exact >= tally->floor[plain]) {
      ++tally->decaying;
      tally->tight += b.hi - b.lo <= 1e-5 * exact;
    }
  }
}

TEST(PhiBounds, BracketTheExactPassAtEveryBurstBoundary) {
  // The screen inputs plus values around 1e-160, whose squares and
  // potential are subnormal: there only the underflow allowance of the
  // proof keeps the bounds honest.
  std::vector<Input> inputs(std::begin(kInputs), std::end(kInputs));
  inputs.push_back({"subnormal_1e-160", 0.0, 1e-160});
  const std::vector<Graph> graphs = min_degree_8_graphs();
  std::uint64_t seed = 1700;
  for (const Input& input : inputs) {
    Tally tally;
    for (const Graph& g : graphs) {
      for (const ModelConfig& config : variant_grid(4.0 * input.stddev)) {
        SCOPED_TRACE(std::string(input.name) + " " + g.name() + " " +
                     describe(config));
        Rng init_rng(seed);
        auto process = make_process(
            g, config,
            initial::gaussian(init_rng, g.node_count(), input.mean,
                              input.stddev));
        tally.floor[0] = 0.1 * process->state().phi_exact();
        tally.floor[1] = 0.1 * process->state().phi_plain_exact();
        Rng rng(++seed);
        const bool cheap =
            config.kind == ModelKind::node || config.kind == ModelKind::edge;
        expect_bracketed(*process, &tally);
        for (int burst = 0; burst < 40; ++burst) {
          process->step_burst(rng, 1 + (cheap ? 977 : 31) * burst);
          expect_bracketed(*process, &tally);
        }
      }
    }
    // Subnormal potentials keep only a few significant bits, so their
    // bounds are honest but wide; every normal input must stay tight.
    if (input.stddev >= 1.0) {
      EXPECT_GE(4 * tally.tight, 3 * tally.decaying)
          << input.name << ": " << tally.tight << " of " << tally.decaying;
    }
  }
}

TEST(PhiBounds, BracketTheExactPassAcrossTheRecomputeBoundary) {
  // Every node/edge step is one update, so at time t the drift count is
  // K = t mod 2^20: the checks below land on K = 2^20 - 1 (the widest
  // drift bound), 0 (just rebuilt) and 1.
  const Graph g = gen::cycle(128);
  std::uint64_t seed = 1900;
  for (const Input& input : kInputs) {
    for (const ModelKind kind : {ModelKind::node, ModelKind::edge}) {
      SCOPED_TRACE(std::string(input.name) + " " + model_kind_name(kind));
      Rng init_rng(seed);
      ModelConfig config;
      config.kind = kind;
      auto process = make_process(
          g, config,
          initial::gaussian(init_rng, g.node_count(), input.mean,
                            input.stddev));
      Rng rng(++seed);
      for (std::int64_t round = 1; round <= 3; ++round) {
        for (const std::int64_t offset : {-1, 0, 1}) {
          process->step_burst(
              rng, round * kRecomputeInterval + offset - process->time());
          expect_bracketed(*process);
        }
      }
    }
  }
}

double max_abs(const std::vector<double>& values) {
  double m = 0.0;
  for (const double v : values) {
    m = std::max(m, std::abs(v));
  }
  return m;
}

TEST(ConvergenceScreen, BurstPathStaysInsideTheMagnitudeBound) {
  const std::vector<Graph> graphs = min_degree_8_graphs();
  const double slack = 1.0 + OpinionState::kValueBoundSlack;
  std::uint64_t seed = 900;
  for (const Input& input : kInputs) {
    std::vector<ModelConfig> grid = variant_grid(4.0 * input.stddev);
    ModelConfig voter;
    voter.kind = ModelKind::voter;
    grid.push_back(voter);
    for (const Graph& g : graphs) {
      for (const ModelConfig& config : grid) {
        SCOPED_TRACE(std::string(input.name) + " " + g.name() + " " +
                     describe(config));
        Rng init_rng(seed);
        const std::vector<double> xi = initial::gaussian(
            init_rng, g.node_count(), input.mean, input.stddev);
        const double hull = max_abs(xi);
        auto process = make_process(g, config, xi);
        EXPECT_EQ(process->state().value_bound(), hull);
        Rng rng(++seed);
        for (int burst = 0; burst < 60; ++burst) {
          process->step_burst(rng, 1 + 61 * burst);
          const double now = max_abs(process->state().values());
          ASSERT_LE(now, process->state().value_bound() * slack)
              << "t=" << process->time();
          // Every kind forms new values as convex combinations or copies
          // of current (and, for FJ, initial) values: the initial hull
          // bounds the whole run.
          ASSERT_LE(now, hull * slack) << "t=" << process->time();
        }
      }
    }
  }
}

TEST(ConvergenceScreen, WeightedMedianAndHegselmannKrauseRangeNeverExpands) {
  const std::vector<Graph> graphs = min_degree_8_graphs();
  std::uint64_t seed = 1300;
  for (const Input& input : kInputs) {
    for (const Graph& g : graphs) {
      for (const ModelConfig& config : variant_grid(0.5 * input.stddev)) {
        if (config.kind != ModelKind::weighted_median &&
            config.kind != ModelKind::hegselmann_krause) {
          continue;
        }
        SCOPED_TRACE(std::string(input.name) + " " + g.name() + " " +
                     describe(config));
        Rng init_rng(seed);
        auto process = make_process(
            g, config,
            initial::gaussian(init_rng, g.node_count(), input.mean,
                              input.stddev));
        const std::vector<double>& values = process->state().values();
        double lo = *std::min_element(values.begin(), values.end());
        double hi = *std::max_element(values.begin(), values.end());
        Rng rng(++seed);
        for (int burst = 0; burst < 60; ++burst) {
          process->step_burst(rng, 1 + 61 * burst);
          const double now_lo = *std::min_element(values.begin(), values.end());
          const double now_hi = *std::max_element(values.begin(), values.end());
          ASSERT_GE(now_lo, lo) << "t=" << process->time();
          ASSERT_LE(now_hi, hi) << "t=" << process->time();
          lo = now_lo;
          hi = now_hi;
        }
      }
    }
  }
}

}  // namespace
}  // namespace opindyn
