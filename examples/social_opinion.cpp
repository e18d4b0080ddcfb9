// Social-network scenario from the paper's introduction: individuals on a
// heavy-tailed (preferential-attachment) friendship graph deciding "how
// much should I budget for this year's vacation?".  Each person starts
// with a private estimate; at random moments someone checks a few
// friends' numbers and nudges their own (the NodeModel with unilateral
// updates -- a "specialist" influences you without being influenced
// back).
//
// The example tracks the opinion spread over time, shows influencers
// (high-degree nodes) pulling the consensus toward *their* initial
// opinions -- E[F] is the degree-weighted average, not the plain one --
// and prints the trajectory as a table.
//
//   ./example_social_opinion [--n=200] [--alpha=0.7] [--k=3]
#include <algorithm>
#include <iostream>

#include "src/core/initial_values.h"
#include "src/core/node_model.h"
#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/support/cli.h"
#include "src/support/table.h"

using namespace opindyn;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto n = static_cast<NodeId>(args.get("n", std::int64_t{200}));
  const double alpha = args.get("alpha", 0.7);
  const std::int64_t k = args.get("k", std::int64_t{3});

  Rng graph_rng(11);
  const Graph network = gen::preferential_attachment(graph_rng, n, 3);
  std::cout << "friendship network: " << network.name()
            << ", max degree = " << network.max_degree()
            << ", min degree = " << network.min_degree() << "\n";

  // Most people budget around $1500; a handful of well-connected
  // frequent travellers (the top-degree nodes) insist on $4000.
  Rng init_rng(13);
  auto budget = initial::gaussian(init_rng, n, 1500.0, 200.0);
  std::vector<NodeId> by_degree(static_cast<std::size_t>(n));
  for (NodeId u = 0; u < n; ++u) {
    by_degree[static_cast<std::size_t>(u)] = u;
  }
  std::sort(by_degree.begin(), by_degree.end(), [&](NodeId a, NodeId b) {
    return network.degree(a) > network.degree(b);
  });
  for (int i = 0; i < 5; ++i) {
    budget[static_cast<std::size_t>(by_degree[static_cast<std::size_t>(i)])] =
        4000.0;
  }

  const double plain_avg = [&] {
    double s = 0.0;
    for (const double v : budget) {
      s += v;
    }
    return s / static_cast<double>(n);
  }();
  const double influencer_weighted = degree_weighted_average(network, budget);
  std::cout << "plain average of initial budgets:            $" << plain_avg
            << "\n";
  std::cout << "degree-weighted average (influencer-skewed): $"
            << influencer_weighted << "  <- E[F], Lemma 4.1\n\n";

  NodeModelParams params;
  params.alpha = alpha;
  params.k = k;
  NodeModel process(network, budget, params);
  Rng rng(17);

  Table timeline({"updates/person", "min budget", "mean budget",
                  "max budget", "spread (K)"});
  const std::int64_t rounds = 400;
  for (std::int64_t round = 0; round <= rounds; ++round) {
    if (round % 50 == 0) {
      timeline.new_row()
          .add_fixed(static_cast<double>(process.time()) /
                         static_cast<double>(n),
                     1)
          .add_fixed(process.state().min_value(), 0)
          .add_fixed(process.state().average(), 0)
          .add_fixed(process.state().max_value(), 0)
          .add_fixed(process.state().discrepancy(), 1);
    }
    for (NodeId i = 0; i < n; ++i) {
      process.step(rng);
    }
  }
  std::cout << timeline.to_markdown() << "\n";

  std::cout << "final consensus: $" << process.state().average()
            << "  (started at plain avg $" << plain_avg
            << "; influencers pulled it toward $" << influencer_weighted
            << ")\n";
  return 0;
}
