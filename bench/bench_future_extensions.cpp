// FUT -- the paper's Section 6 open problems, answered numerically:
//
//  (1) Higher moments via M-correlated walks: the exact 3-walk joint
//      chain predicts the third central moment of F; compared against
//      Monte Carlo.  (The paper asks whether M-dependent walks can give
//      moments M > 2 -- numerically, they do.)
//
//  (2) Concentration on irregular graphs: the 2-walk chain has no closed
//      form off regular graphs, but its numerical stationary
//      distribution gives exact Var(F) for both models; we tabulate
//      n^2 Var / ||xi||^2 across irregular families to see whether the
//      Theta(||xi||^2/n^2) law survives irregularity.
#include <cmath>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "src/core/convergence.h"
#include "src/core/initial_values.h"
#include "src/core/model.h"
#include "src/core/moments.h"
#include "src/engine/experiment_spec.h"
#include "src/graph/generators.h"
#include "src/support/cell_scheduler.h"
#include "src/support/rng.h"
#include "src/support/table.h"

namespace {
using namespace opindyn;
}  // namespace

int main() {
  std::cout << "\n# FUT: Section 6 future-work directions, numerically\n"
               "(1) third moment of F from the exact 3-walk chain; "
               "(2) Var(F) on irregular graphs from the numerical 2-walk "
               "chain.\n\n";

  std::cout << "## (1) third central moment of F (NodeModel, alpha=0.5, "
               "k=1)\n\n";
  Table third({"graph", "xi(0)", "E[F^3] predicted (3-walk chain)",
               "E[F^3] Monte Carlo", "skewness of F"});
  {
    struct Case {
      Graph graph;
      std::vector<double> xi;
      std::string label;
    };
    std::vector<Case> cases;
    cases.push_back({gen::complete(5), {4, -1, -1, -1, -1}, "one high"});
    cases.push_back({gen::complete(5), {-4, 1, 1, 1, 1}, "one low"});
    cases.push_back({gen::cycle(6), {5, -1, -1, -1, -1, -1}, "spiked"});
    for (auto& c : cases) {
      initial::center_plain(c.xi);
      const double predicted = predicted_moment(c.graph, 0.5, 1, c.xi, 3);
      // Monte Carlo third moment on the shared CellScheduler (replica r
      // draws from Rng::fork(3, r), the same streams the old serial
      // loop used, so the numbers are unchanged -- just parallel now).
      ModelConfig config;
      config.alpha = 0.5;
      config.k = 1;
      const std::int64_t replicas = 40000;
      CellScheduler scheduler;
      const auto stats = scheduler.run(
          replicas, 3, 2,
          [&c, &config](std::int64_t, Rng& rng, std::span<double> out) {
            auto process = make_process(c.graph, config, c.xi);
            ConvergenceOptions conv;
            conv.epsilon = 1e-13;
            const ConvergenceResult one =
                run_until_converged(*process, rng, conv);
            out[0] = one.final_value * one.final_value * one.final_value;
            out[1] = one.final_value * one.final_value;
          });
      const double measured3 = stats[0].mean();
      const double sigma = std::sqrt(stats[1].mean());
      third.new_row()
          .add(c.graph.name())
          .add(c.label)
          .add_sci(predicted, 3)
          .add_sci(measured3, 3)
          .add_fixed(predicted / (sigma * sigma * sigma), 3);
    }
  }
  std::cout << third.to_markdown() << "\n";
  std::cout << "Reading: the 3-walk chain nails the sign and magnitude of "
               "the third moment -- M-dependent walks do extend to "
               "higher moments, as the paper conjectures.\n\n";

  std::cout << "## (2) Var(F) on irregular graphs (numerical Q-chain)\n\n";
  Table irregular({"graph", "model", "Var(F) predicted", "Var(F) MC",
                   "MC/pred", "n^2 Var / ||xi||^2"});
  Rng init_rng(9);
  for (const std::string family :
       {"star", "double_star", "lollipop", "binary_tree", "path"}) {
    const Graph g = engine::build_graph({.family = family, .n = 12});
    auto xi = initial::gaussian(init_rng, g.node_count(), 0.0, 1.0);

    for (const ModelKind kind : {ModelKind::node, ModelKind::edge}) {
      auto centered = xi;
      if (kind == ModelKind::node) {
        initial::center_degree_weighted(g, centered);
      } else {
        initial::center_plain(centered);
      }
      const double predicted =
          kind == ModelKind::node
              ? predicted_variance_any_graph(g, 0.5, 1, centered)
              : predicted_variance_any_graph_edge(g, 0.5, centered);

      ModelConfig config;
      config.kind = kind;
      config.alpha = 0.5;
      config.k = 1;
      // Monte-Carlo Var(F) on the shared CellScheduler, with the same
      // streams (Rng::fork(31, r)) the retired monte_carlo harness
      // assigned, so the table is unchanged.
      CellScheduler scheduler;
      const auto stats = scheduler.run(
          12000, 31, 1,
          [&g, &config, &centered](std::int64_t, Rng& rng,
                                   std::span<double> out) {
            auto process = make_process(g, config, centered);
            ConvergenceOptions conv;
            conv.epsilon = 1e-13;
            out[0] = run_until_converged(*process, rng, conv).final_value;
          });
      const double measured = stats[0].population_variance();
      const double scaled = predicted *
                            static_cast<double>(g.node_count()) *
                            static_cast<double>(g.node_count()) /
                            initial::l2_squared(centered);
      irregular.new_row()
          .add(g.name())
          .add(kind == ModelKind::node ? "NodeModel" : "EdgeModel")
          .add_sci(predicted, 3)
          .add_sci(measured, 3)
          .add_fixed(measured / predicted, 3)
          .add_fixed(scaled, 3);
    }
  }
  std::cout << irregular.to_markdown() << "\n";
  std::cout
      << "Reading: MC/pred ~ 1 everywhere -- the duality machinery gives "
         "exact variances beyond the regular case.  The last column shows "
         "the n^2-scaled variance can move by larger factors on strongly "
         "irregular graphs (the star's hub dominates), quantifying what "
         "an irregular-graph version of Theorem 2.2(2) must contend "
         "with.\n";
  return 0;
}
