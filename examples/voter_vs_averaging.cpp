// Head-to-head of three consensus protocols on the same graph:
//   1. the discrete voter model (a node copies a random neighbour),
//   2. the NodeModel averaging process of the paper,
//   3. coordinated pairwise gossip (both endpoints average -- stronger
//      communication, exact average).
// Shows the trade-off triangle: speed, accuracy of the consensus value,
// and the coordination requirement.
//
//   ./example_voter_vs_averaging [--n=64] [--graph=complete|cycle]
//                                [--trials=25]
#include <cmath>
#include <iostream>

#include "src/core/convergence.h"
#include "src/core/gossip_model.h"
#include "src/core/voter_model.h"
#include "src/core/initial_values.h"
#include "src/core/node_model.h"
#include "src/graph/generators.h"
#include "src/support/cli.h"
#include "src/support/stats.h"
#include "src/support/table.h"

using namespace opindyn;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto n = static_cast<NodeId>(args.get("n", std::int64_t{64}));
  const std::string family = args.get("graph", std::string("complete"));
  const int trials = static_cast<int>(args.get("trials", std::int64_t{25}));

  const Graph g =
      family == "cycle" ? gen::cycle(n) : gen::complete(n);
  std::cout << "arena: " << g.name() << ", " << trials
            << " independent trials per protocol\n\n";

  // Everyone holds a numeric opinion 0..9 (discretised for the voter).
  Rng init_rng(3);
  std::vector<double> xi(static_cast<std::size_t>(n));
  std::vector<int> discrete(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < xi.size(); ++i) {
    discrete[i] = static_cast<int>(init_rng.next_below(10));
    xi[i] = static_cast<double>(discrete[i]);
  }
  double avg0 = 0.0;
  for (const double v : xi) {
    avg0 += v;
  }
  avg0 /= static_cast<double>(n);
  const double eps = 1.0 / (static_cast<double>(n) * static_cast<double>(n));

  RunningStats voter_steps;
  RunningStats voter_value;
  RunningStats node_steps;
  RunningStats node_value;
  RunningStats gossip_steps;
  RunningStats gossip_value;

  for (int t = 0; t < trials; ++t) {
    const auto seed = static_cast<std::uint64_t>(t) + 100;
    {
      Rng rng(seed);
      VoterModel voter(g, discrete);
      ConvergenceOptions options;
      options.max_steps = 500'000'000;
      options.check_interval = 1;  // consensus is an O(1) read
      const auto r = run_until_converged(voter, rng, options);
      if (r.converged) {
        voter_steps.add(static_cast<double>(r.steps));
        voter_value.add(voter.opinion(0));
      }
    }
    {
      Rng rng(seed);
      NodeModelParams params;
      params.alpha = 0.5;
      params.k = 1;
      NodeModel model(g, xi, params);
      ConvergenceOptions options;
      options.epsilon = eps;
      const auto r = run_until_converged(model, rng, options);
      node_steps.add(static_cast<double>(r.steps));
      node_value.add(r.final_value);
    }
    {
      Rng rng(seed);
      GossipModel gossip(g, xi);
      ConvergenceOptions options;
      options.epsilon = eps;
      options.max_steps = 500'000'000;
      options.use_plain_potential = true;  // gossip conserves Avg exactly
      const auto r = run_until_converged(gossip, rng, options);
      gossip_steps.add(static_cast<double>(r.steps));
      gossip_value.add(gossip.state().average());
    }
  }

  Table table({"protocol", "mean steps", "mean consensus value",
               "sd of consensus value", "|E[value] - Avg(0)|",
               "coordination"});
  auto emit = [&](const char* name, const RunningStats& steps,
                  const RunningStats& value, const char* coordination) {
    table.new_row()
        .add(name)
        .add_fixed(steps.mean(), 0)
        .add_fixed(value.mean(), 3)
        .add_fixed(value.stddev(), 3)
        .add_fixed(std::abs(value.mean() - avg0), 3)
        .add(coordination);
  };
  emit("voter (discrete copy)", voter_steps, voter_value, "none");
  emit("NodeModel (averaging)", node_steps, node_value, "none");
  emit("pairwise gossip", gossip_steps, gossip_value, "2-node sync");
  std::cout << table.to_markdown() << "\n";
  std::cout << "Avg(0) = " << avg0 << "\n\n";
  std::cout
      << "Reading: averaging converges orders of magnitude faster than "
         "voting and lands within Theta(||xi||/n) of the true average; "
         "gossip nails the average exactly but requires coordinated "
         "two-node updates (the stronger model the paper contrasts).\n";
  return 0;
}
