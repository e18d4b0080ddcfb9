// CE2 -- Corollary E.2:
//  (i)   lambda_2(L) >= i(G)^2 / (2 d_max)  (isoperimetric lower bound),
//        checked with the *exact* isoperimetric number on small graphs;
//  (ii)  Var(M(t))  <= t (d_max K / 2m)^2    (NodeModel, early-time),
//  (iii) Var(Avg(t)) <= t K^2 / n^2          (EdgeModel, early-time),
//        checked against Monte-Carlo trajectories.
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "src/core/convergence.h"
#include "src/core/initial_values.h"
#include "src/core/model.h"
#include "src/core/theory.h"
#include "src/engine/experiment_spec.h"
#include "src/graph/isoperimetric.h"
#include "src/spectral/spectra.h"
#include "src/support/cell_scheduler.h"
#include "src/support/rng.h"
#include "src/support/table.h"

namespace {
using namespace opindyn;

/// Var(M(t)) at fixed checkpoints over `replicas` runs, on the shared
/// CellScheduler (replica r draws from Rng::fork(seed, r) -- the same
/// streams the retired monte_carlo_trajectory harness used, so the
/// reported numbers are unchanged; the martingale samples consume no
/// randomness, only the steps do).
std::vector<RunningStats> martingale_at_checkpoints(
    const Graph& g, const ModelConfig& config,
    const std::vector<double>& xi,
    const std::vector<std::int64_t>& checkpoints, std::int64_t replicas,
    std::uint64_t seed) {
  CellScheduler scheduler;
  return scheduler.run(
      replicas, seed, checkpoints.size(),
      [&](std::int64_t, Rng& rng, std::span<double> out) {
        auto process = make_process(g, config, xi);
        for (std::size_t c = 0; c < checkpoints.size(); ++c) {
          while (process->time() < checkpoints[c]) {
            process->step(rng);
          }
          out[c] = config.kind == ModelKind::edge
                       ? process->state().average()
                       : process->state().weighted_average();
        }
      });
}
}  // namespace

int main() {
  std::cout << "\n# CE2: Corollary E.2 bounds\n"
               "(i) Cheeger-style spectral bound with exact i(G); "
               "(ii)/(iii) early-time variance envelopes, 4000 replicas."
               "\n\n";

  std::cout << "## (i) lambda2(L) >= i(G)^2 / (2 d_max)\n\n";
  Table cheeger({"graph", "i(G) exact", "d_max", "bound i^2/(2 d_max)",
                 "lambda2(L)", "holds"});
  bool all_hold = true;
  for (const std::string family :
       {"cycle", "complete", "star", "path", "hypercube", "barbell",
        "lollipop", "binary_tree"}) {
    const Graph g = engine::build_graph({.family = family, .n = 16});
    const double ig = isoperimetric_number_exact(g);
    const double bound =
        theory::cheeger_lambda2_lower_bound(ig, g.max_degree());
    const double lambda2 = laplacian_spectrum(g).lambda2;
    const bool holds = lambda2 + 1e-12 >= bound;
    all_hold = all_hold && holds;
    cheeger.new_row()
        .add(g.name())
        .add_fixed(ig, 4)
        .add(static_cast<std::int64_t>(g.max_degree()))
        .add_sci(bound, 3)
        .add_sci(lambda2, 3)
        .add(holds ? "yes" : "NO");
  }
  std::cout << cheeger.to_markdown() << "\n";

  std::cout << "## (ii) NodeModel: Var(M(t)) <= t (d_max K / 2m)^2\n\n";
  const Graph g = engine::build_graph({.family = "lollipop", .n = 16});
  Rng init_rng(3);
  auto xi = initial::uniform(init_rng, g.node_count(), -1.0, 1.0);
  initial::center_degree_weighted(g, xi);
  OpinionState probe(g, xi);
  const double k_discrepancy = probe.discrepancy();

  ModelConfig node_config;
  node_config.alpha = 0.5;
  node_config.k = 1;
  const std::vector<std::int64_t> checkpoints{16, 64, 256, 1024, 4096};
  const std::vector<RunningStats> node_traj =
      martingale_at_checkpoints(g, node_config, xi, checkpoints, 4000, 7);
  Table var_m({"t", "Var(M(t)) measured", "bound t (d_max K/2m)^2",
               "ratio"});
  bool env_ok = true;
  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    const double measured = node_traj[i].population_variance();
    const double bound = theory::node_var_m_time_bound(
        checkpoints[i], k_discrepancy, g.max_degree(), g.edge_count());
    env_ok = env_ok && measured <= bound;
    var_m.new_row()
        .add(checkpoints[i])
        .add_sci(measured, 3)
        .add_sci(bound, 3)
        .add_fixed(measured / bound, 4);
  }
  std::cout << var_m.to_markdown() << "\n";

  std::cout << "## (iii) EdgeModel: Var(Avg(t)) <= t K^2 / n^2\n\n";
  ModelConfig edge_config;
  edge_config.kind = ModelKind::edge;
  edge_config.alpha = 0.5;
  auto xi_edge = xi;
  initial::center_plain(xi_edge);
  OpinionState probe_edge(g, xi_edge);
  const double k_edge = probe_edge.discrepancy();
  const std::vector<RunningStats> edge_traj = martingale_at_checkpoints(
      g, edge_config, xi_edge, checkpoints, 4000, 9);
  Table var_avg({"t", "Var(Avg(t)) measured", "bound t K^2/n^2", "ratio"});
  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    const double measured = edge_traj[i].population_variance();
    const double bound = theory::edge_var_avg_time_bound(
        checkpoints[i], k_edge, g.node_count());
    env_ok = env_ok && measured <= bound;
    var_avg.new_row()
        .add(checkpoints[i])
        .add_sci(measured, 3)
        .add_sci(bound, 3)
        .add_fixed(measured / bound, 4);
  }
  std::cout << var_avg.to_markdown() << "\n";
  std::cout << ((all_hold && env_ok)
                    ? "All Corollary E.2 bounds hold.\n"
                    : "BOUND VIOLATION detected!\n");
  return (all_hold && env_ok) ? 0 : 1;
}
