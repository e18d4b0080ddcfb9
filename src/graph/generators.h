// Graph families used across the paper's experiments.
//
// Regular families (cycle, complete, torus, hypercube, circulant, random
// d-regular, Petersen) exercise Theorem 2.2(2)/2.4(2) (the concentration
// bounds hold for regular graphs); irregular families (star, double star,
// barbell, lollipop, trees, preferential attachment) exercise the EdgeModel
// results and the degree-weighted martingale of Lemma 4.1.
#ifndef OPINDYN_GRAPH_GENERATORS_H
#define OPINDYN_GRAPH_GENERATORS_H

#include "src/graph/graph.h"
#include "src/support/rng.h"

namespace opindyn {

class CellScheduler;

namespace gen {

/// Path P_n: 0-1-2-...-(n-1).  n >= 2.
Graph path(NodeId n);

/// Cycle C_n.  n >= 3.  2-regular; lambda_2(L) = 2 - 2cos(2*pi/n).
Graph cycle(NodeId n);

/// Complete graph K_n.  n >= 2.  (n-1)-regular; lambda_2(L) = n.
Graph complete(NodeId n);

/// Star S_n: node 0 is the hub, nodes 1..n-1 are leaves.  n >= 2.
Graph star(NodeId n);

/// Double star: two hubs joined by an edge, each with `leaves` leaves.
Graph double_star(NodeId leaves_per_hub);

/// rows x cols grid with 4-neighbourhoods (no wraparound).
Graph grid(NodeId rows, NodeId cols);

/// rows x cols torus (wraparound grid); 4-regular when rows, cols >= 3.
Graph torus(NodeId rows, NodeId cols);

/// Hypercube Q_d on 2^d nodes; d-regular; lambda_2(L) = 2.
Graph hypercube(int dimensions);

/// Circulant graph: node i adjacent to i +- s (mod n) for each stride s.
/// 2*|strides|-regular if all strides distinct and != n/2.
Graph circulant(NodeId n, const std::vector<NodeId>& strides);

/// Complete bipartite K_{a,b}.
Graph complete_bipartite(NodeId a, NodeId b);

/// Complete binary tree with n nodes (heap indexing).
Graph binary_tree(NodeId n);

/// Petersen graph (n=10, 3-regular, diameter 2).
Graph petersen();

/// Barbell: two K_c cliques joined by a path of `path_len` extra nodes
/// (path_len = 0 joins the cliques by a single edge).
Graph barbell(NodeId clique_size, NodeId path_len);

/// Lollipop: K_c clique with a path of `path_len` nodes attached.
Graph lollipop(NodeId clique_size, NodeId path_len);

/// Random d-regular graph via the pairing/configuration model with
/// rejection until simple and connected.  Requires n*d even, d < n.
/// With `workers`, idle pool workers run attempts too; the graph and
/// `rng`'s end state are the same for every worker count.  Throws after
/// 10000 rejected attempts.
Graph random_regular(Rng& rng, NodeId n, NodeId d,
                     CellScheduler* workers = nullptr);

/// Erdos-Renyi G(n, p), resampled until connected.  `p` should be above
/// the connectivity threshold (log n / n) or this may loop for a while;
/// gives up after `max_attempts` and throws.
Graph erdos_renyi_connected(Rng& rng, NodeId n, double p,
                            int max_attempts = 1000);

/// Preferential attachment (Barabasi-Albert): starts from a complete graph
/// on `attach + 1` nodes, each new node attaches to `attach` distinct
/// existing nodes chosen proportionally to degree.  Connected by
/// construction; heavy-tailed degrees - the paper's social-network
/// motivation.
Graph preferential_attachment(Rng& rng, NodeId n, NodeId attach);

}  // namespace gen
}  // namespace opindyn

#endif  // OPINDYN_GRAPH_GENERATORS_H
