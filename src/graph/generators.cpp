#include "src/graph/generators.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>

#include "src/graph/algorithms.h"
#include "src/graph/builder.h"
#include "src/support/assert.h"
#include "src/support/attempt_search.h"
#include "src/support/metrics.h"

namespace opindyn {
namespace gen {

Graph path(NodeId n) {
  OPINDYN_EXPECTS(n >= 2, "path needs n >= 2");
  GraphBuilder builder(n);
  builder.reserve(n - 1);
  for (NodeId i = 0; i + 1 < n; ++i) {
    builder.add_edge_unchecked(i, i + 1);
  }
  return builder.build("path(" + std::to_string(n) + ")");
}

Graph cycle(NodeId n) {
  OPINDYN_EXPECTS(n >= 3, "cycle needs n >= 3");
  GraphBuilder builder(n);
  builder.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    builder.add_edge_unchecked(i, static_cast<NodeId>((i + 1) % n));
  }
  return builder.build("cycle(" + std::to_string(n) + ")");
}

Graph complete(NodeId n) {
  OPINDYN_EXPECTS(n >= 2, "complete graph needs n >= 2");
  GraphBuilder builder(n);
  builder.reserve(static_cast<std::int64_t>(n) * (n - 1) / 2);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = static_cast<NodeId>(u + 1); v < n; ++v) {
      builder.add_edge_unchecked(u, v);
    }
  }
  return builder.build("complete(" + std::to_string(n) + ")");
}

Graph star(NodeId n) {
  OPINDYN_EXPECTS(n >= 2, "star needs n >= 2");
  GraphBuilder builder(n);
  builder.reserve(n - 1);
  for (NodeId v = 1; v < n; ++v) {
    builder.add_edge_unchecked(0, v);
  }
  return builder.build("star(" + std::to_string(n) + ")");
}

Graph double_star(NodeId leaves_per_hub) {
  OPINDYN_EXPECTS(leaves_per_hub >= 1, "double star needs >= 1 leaf per hub");
  const NodeId n = static_cast<NodeId>(2 + 2 * leaves_per_hub);
  GraphBuilder builder(n);
  builder.add_edge(0, 1);
  for (NodeId i = 0; i < leaves_per_hub; ++i) {
    builder.add_edge(0, static_cast<NodeId>(2 + i));
    builder.add_edge(1, static_cast<NodeId>(2 + leaves_per_hub + i));
  }
  return builder.build("double_star(" + std::to_string(leaves_per_hub) + ")");
}

namespace {
NodeId grid_id(NodeId r, NodeId c, NodeId cols) {
  return static_cast<NodeId>(r * cols + c);
}
}  // namespace

Graph grid(NodeId rows, NodeId cols) {
  OPINDYN_EXPECTS(rows >= 1 && cols >= 1 &&
                      static_cast<std::int64_t>(rows) * cols >= 2,
                  "grid needs at least two nodes");
  GraphBuilder builder(static_cast<NodeId>(rows * cols));
  builder.reserve(static_cast<std::int64_t>(rows) * (cols - 1) +
                  static_cast<std::int64_t>(cols) * (rows - 1));
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        builder.add_edge_unchecked(grid_id(r, c, cols),
                                   grid_id(r, c + 1, cols));
      }
      if (r + 1 < rows) {
        builder.add_edge_unchecked(grid_id(r, c, cols),
                                   grid_id(r + 1, c, cols));
      }
    }
  }
  return builder.build("grid(" + std::to_string(rows) + "x" +
                       std::to_string(cols) + ")");
}

Graph torus(NodeId rows, NodeId cols) {
  OPINDYN_EXPECTS(rows >= 3 && cols >= 3,
                  "torus needs rows, cols >= 3 for 4-regularity");
  GraphBuilder builder(static_cast<NodeId>(rows * cols));
  builder.reserve(2 * static_cast<std::int64_t>(rows) * cols);
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      builder.add_edge_unchecked(
          grid_id(r, c, cols),
          grid_id(r, static_cast<NodeId>((c + 1) % cols), cols));
      builder.add_edge_unchecked(
          grid_id(r, c, cols),
          grid_id(static_cast<NodeId>((r + 1) % rows), c, cols));
    }
  }
  return builder.build("torus(" + std::to_string(rows) + "x" +
                       std::to_string(cols) + ")");
}

Graph hypercube(int dimensions) {
  OPINDYN_EXPECTS(dimensions >= 1 && dimensions <= 20,
                  "hypercube dimension must be in [1, 20]");
  const NodeId n = static_cast<NodeId>(1) << dimensions;
  GraphBuilder builder(n);
  builder.reserve(static_cast<std::int64_t>(n) * dimensions / 2);
  for (NodeId u = 0; u < n; ++u) {
    for (int b = 0; b < dimensions; ++b) {
      const NodeId v = static_cast<NodeId>(u ^ (1 << b));
      if (u < v) {
        builder.add_edge_unchecked(u, v);
      }
    }
  }
  return builder.build("hypercube(" + std::to_string(dimensions) + ")");
}

Graph circulant(NodeId n, const std::vector<NodeId>& strides) {
  OPINDYN_EXPECTS(n >= 3, "circulant needs n >= 3");
  OPINDYN_EXPECTS(!strides.empty(), "circulant needs at least one stride");
  GraphBuilder builder(n);
  builder.reserve(static_cast<std::int64_t>(n) * strides.size());
  for (const NodeId s : strides) {
    OPINDYN_EXPECTS(s >= 1 && s < n, "stride out of range");
    for (NodeId i = 0; i < n; ++i) {
      builder.add_edge(i, static_cast<NodeId>((i + s) % n));
    }
  }
  std::string name = "circulant(" + std::to_string(n) + ";";
  for (std::size_t i = 0; i < strides.size(); ++i) {
    if (i > 0) {
      name += ',';
    }
    name += std::to_string(strides[i]);
  }
  name += ")";
  return builder.build(std::move(name));
}

Graph complete_bipartite(NodeId a, NodeId b) {
  OPINDYN_EXPECTS(a >= 1 && b >= 1, "complete bipartite needs a, b >= 1");
  GraphBuilder builder(static_cast<NodeId>(a + b));
  builder.reserve(static_cast<std::int64_t>(a) * b);
  for (NodeId u = 0; u < a; ++u) {
    for (NodeId v = 0; v < b; ++v) {
      builder.add_edge_unchecked(u, static_cast<NodeId>(a + v));
    }
  }
  return builder.build("complete_bipartite(" + std::to_string(a) + "," +
                       std::to_string(b) + ")");
}

Graph binary_tree(NodeId n) {
  OPINDYN_EXPECTS(n >= 2, "binary tree needs n >= 2");
  GraphBuilder builder(n);
  builder.reserve(n - 1);
  for (NodeId v = 1; v < n; ++v) {
    builder.add_edge_unchecked(v, static_cast<NodeId>((v - 1) / 2));
  }
  return builder.build("binary_tree(" + std::to_string(n) + ")");
}

Graph petersen() {
  GraphBuilder builder(10);
  for (NodeId i = 0; i < 5; ++i) {
    builder.add_edge(i, static_cast<NodeId>((i + 1) % 5));       // outer C5
    builder.add_edge(static_cast<NodeId>(5 + i),
                     static_cast<NodeId>(5 + (i + 2) % 5));      // inner star
    builder.add_edge(i, static_cast<NodeId>(5 + i));             // spokes
  }
  return builder.build("petersen");
}

Graph barbell(NodeId clique_size, NodeId path_len) {
  OPINDYN_EXPECTS(clique_size >= 3, "barbell needs clique size >= 3");
  OPINDYN_EXPECTS(path_len >= 0, "path length must be >= 0");
  const NodeId n = static_cast<NodeId>(2 * clique_size + path_len);
  GraphBuilder builder(n);
  auto add_clique = [&](NodeId base) {
    for (NodeId u = 0; u < clique_size; ++u) {
      for (NodeId v = static_cast<NodeId>(u + 1); v < clique_size; ++v) {
        builder.add_edge(static_cast<NodeId>(base + u),
                         static_cast<NodeId>(base + v));
      }
    }
  };
  add_clique(0);
  add_clique(static_cast<NodeId>(clique_size + path_len));
  // Bridge: last node of clique A -> path -> first node of clique B.
  NodeId prev = static_cast<NodeId>(clique_size - 1);
  for (NodeId i = 0; i < path_len; ++i) {
    const NodeId next = static_cast<NodeId>(clique_size + i);
    builder.add_edge(prev, next);
    prev = next;
  }
  builder.add_edge(prev, static_cast<NodeId>(clique_size + path_len));
  return builder.build("barbell(" + std::to_string(clique_size) + "," +
                       std::to_string(path_len) + ")");
}

Graph lollipop(NodeId clique_size, NodeId path_len) {
  OPINDYN_EXPECTS(clique_size >= 3, "lollipop needs clique size >= 3");
  OPINDYN_EXPECTS(path_len >= 1, "lollipop needs path length >= 1");
  const NodeId n = static_cast<NodeId>(clique_size + path_len);
  GraphBuilder builder(n);
  for (NodeId u = 0; u < clique_size; ++u) {
    for (NodeId v = static_cast<NodeId>(u + 1); v < clique_size; ++v) {
      builder.add_edge(u, v);
    }
  }
  NodeId prev = static_cast<NodeId>(clique_size - 1);
  for (NodeId i = 0; i < path_len; ++i) {
    const NodeId next = static_cast<NodeId>(clique_size + i);
    builder.add_edge(prev, next);
    prev = next;
  }
  return builder.build("lollipop(" + std::to_string(clique_size) + "," +
                       std::to_string(path_len) + ")");
}

namespace {

/// The permutations of accepted pairing attempts, by attempt index.
/// Shared with the search's helpers, which may outlive the
/// random_regular call.
struct AcceptedPairings {
  std::mutex mutex;
  std::map<std::int64_t, std::vector<std::int32_t>> perms;
};

/// One worker's pairing attempt with its own scratch.  No allocation per
/// attempt: the permutation is shuffled in place with
/// random_permutation's exact draw sequence, and simplicity is tested on
/// flat per-node partner slots (d each -- a node has exactly d stubs).
/// Fisher-Yates finalises perm[i] at step i, so pair k is final after
/// step 2k (pair 0 after step 1) and is tested right then.  On the first
/// bad pair the remaining swaps are skipped but their draws are still
/// made, so every attempt draws n*d - 1 bounded values.  Whether the
/// pair set is simple does not depend on the order it is tested in, so
/// the accept/reject outcome and the edge order are those of shuffling
/// first and testing pairs 0, 1, ... after.  A simple pairing leaves
/// every node's d neighbours in its partner slots, so connectivity is a
/// search over those slots; only the winner becomes a Graph.
class PairingAttempt {
 public:
  PairingAttempt(NodeId n, NodeId d,
                 std::shared_ptr<AcceptedPairings> accepted)
      : n_(n),
        d_(d),
        stubs_(static_cast<std::int64_t>(n) * d),
        perm_(static_cast<std::size_t>(stubs_)),
        partners_(static_cast<std::size_t>(stubs_)),
        partner_count_(static_cast<std::size_t>(n)),
        accepted_(std::move(accepted)) {}

  bool operator()(std::int64_t index, Rng& rng) {
    std::iota(perm_.begin(), perm_.end(), 0);
    std::fill(partner_count_.begin(), partner_count_.end(), 0);
    bool simple = true;
    std::int64_t i = stubs_ - 1;
    for (; i > 0; --i) {
      const auto j = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(i) + 1));
      std::swap(perm_[static_cast<std::size_t>(i)],
                perm_[static_cast<std::size_t>(j)]);
      if (i % 2 == 0 && !pair_is_new(i)) {
        simple = false;
        break;
      }
    }
    if (!simple) {
      for (--i; i > 0; --i) {
        (void)rng.next_below(static_cast<std::uint64_t>(i) + 1);
      }
      return false;
    }
    if (!pair_is_new(0) || !partners_connected()) {
      return false;
    }
    // Assign, not emplace: after a broken link the search re-runs an
    // index whose first run started from the wrong state.  The search
    // never calls a worker's attempt again after it accepts, so its
    // permutation moves out instead of being copied.
    const std::lock_guard<std::mutex> lock(accepted_->mutex);
    accepted_->perms.insert_or_assign(index, std::move(perm_));
    return true;
  }

 private:
  /// Records pair (perm[first], perm[first + 1]); false on a self-loop
  /// or a repeated edge.
  bool pair_is_new(std::int64_t first) {
    const NodeId u = perm_[static_cast<std::size_t>(first)] / d_;
    const NodeId v = perm_[static_cast<std::size_t>(first + 1)] / d_;
    if (u == v) {
      return false;
    }
    NodeId& u_count = partner_count_[static_cast<std::size_t>(u)];
    NodeId& v_count = partner_count_[static_cast<std::size_t>(v)];
    const auto u_base = partners_.begin() + static_cast<std::int64_t>(u) * d_;
    const auto v_base = partners_.begin() + static_cast<std::int64_t>(v) * d_;
    if (std::find(u_base, u_base + u_count, v) != u_base + u_count) {
      return false;
    }
    u_base[u_count++] = v;
    v_base[v_count++] = u;
    return true;
  }

  /// Depth-first search from node 0 over the full partner slots; the
  /// partner counts, no longer needed, mark the nodes reached.
  bool partners_connected() {
    std::fill(partner_count_.begin(), partner_count_.end(), 0);
    stack_.assign(1, 0);
    partner_count_[0] = 1;
    NodeId reached = 1;
    while (!stack_.empty()) {
      const NodeId u = stack_.back();
      stack_.pop_back();
      const auto row = partners_.begin() + static_cast<std::int64_t>(u) * d_;
      for (auto it = row; it != row + d_; ++it) {
        NodeId& mark = partner_count_[static_cast<std::size_t>(*it)];
        if (mark == 0) {
          mark = 1;
          ++reached;
          stack_.push_back(*it);
        }
      }
    }
    return reached == n_;
  }

  NodeId n_;
  NodeId d_;
  std::int64_t stubs_;
  std::vector<std::int32_t> perm_;
  std::vector<NodeId> partners_;
  std::vector<NodeId> partner_count_;
  std::vector<NodeId> stack_;
  std::shared_ptr<AcceptedPairings> accepted_;
};

}  // namespace

Graph random_regular(Rng& rng, NodeId n, NodeId d, CellScheduler* workers) {
  OPINDYN_EXPECTS(n >= 2 && d >= 1 && d < n, "need 1 <= d < n");
  OPINDYN_EXPECTS((static_cast<std::int64_t>(n) * d) % 2 == 0,
                  "n*d must be even for a d-regular graph");
  // Pairing (configuration) model: create d half-edges ("stubs") per node,
  // pair them via a uniform perfect matching (stubs perm[2k], perm[2k+1]
  // of a uniform permutation), reject on self-loops, multi-edges, or
  // disconnectedness.  For fixed d the acceptance probability is bounded
  // below by a constant (about e^(-(d^2-1)/4): 2.4% at d = 4), so the
  // loop ends, but only after tens to hundreds of attempts.
  //
  // Those attempts run on every worker at once (support/attempt_search):
  // each draws exactly n*d - 1 words unless a bounded draw redraws
  // (probability ~2^-48 per draw), so attempt k is placed k*(n*d - 1)
  // words past the start by an exact xoshiro jump instead of by running
  // attempts 0..k-1.  The winner is the lowest-index accepted attempt
  // whose start is checked against its predecessor's end, link by link
  // from attempt 0; a broken link (a redraw) re-runs the rest from the
  // true state.  So the graph, the counter below and the rng's end state
  // are the serial loop's at any worker count; only the speculative
  // attempts thrown away past the winner depend on timing.
  //
  // A helper costs each attempt a claim and a jump (~1-2 us), which an
  // attempt under ~1024 words (~2 us of draws) does not pay back:
  // random_regular(128,4) built in 0.06 ms alone and 0.09 ms with one
  // helper, (512,4) in 0.6 ms and 0.4 ms.  Smaller searches run alone.
  const std::int64_t stubs = static_cast<std::int64_t>(n) * d;
  constexpr std::int64_t kMinWordsToShare = 1024;
  auto accepted = std::make_shared<AcceptedPairings>();
  const SearchResult result = search_attempts(
      rng, 10000, static_cast<std::uint64_t>(stubs - 1),
      [n, d, accepted]() -> SearchAttempt {
        return PairingAttempt(n, d, accepted);
      },
      stubs - 1 >= kMinWordsToShare ? workers : nullptr);
  if (result.accepted < 0) {
    throw std::runtime_error(
        "random_regular: failed to generate a simple connected graph "
        "(parameters too tight?)");
  }
  metrics::count("graph.pairing_attempts", result.accepted + 1);
  metrics::add_gauge("graph.pairing_discarded", result.discarded);
  std::vector<std::int32_t> perm;
  {
    // A helper still queued keeps `accepted` alive; leave it empty.
    const std::lock_guard<std::mutex> lock(accepted->mutex);
    perm = std::move(accepted->perms.at(result.accepted));
    accepted->perms.clear();
  }
  GraphBuilder builder(n);
  builder.reserve(stubs / 2);
  for (std::int64_t k = 0; k < stubs; k += 2) {
    builder.add_edge_unchecked(perm[static_cast<std::size_t>(k)] / d,
                               perm[static_cast<std::size_t>(k + 1)] / d);
  }
  return builder.build("random_regular(" + std::to_string(n) + "," +
                       std::to_string(d) + ")");
}

Graph erdos_renyi_connected(Rng& rng, NodeId n, double p, int max_attempts) {
  OPINDYN_EXPECTS(n >= 2, "G(n,p) needs n >= 2");
  OPINDYN_EXPECTS(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    GraphBuilder builder(n);
    builder.reserve(static_cast<std::int64_t>(
        p * static_cast<double>(n) * (n - 1) / 2.0));
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = static_cast<NodeId>(u + 1); v < n; ++v) {
        if (rng.next_bool(p)) {
          builder.add_edge_unchecked(u, v);
        }
      }
    }
    if (builder.edge_count() == 0) {
      continue;
    }
    Graph graph = builder.build("gnp(" + std::to_string(n) + ")");
    if (is_connected(graph)) {
      return graph;
    }
  }
  throw std::runtime_error(
      "erdos_renyi_connected: no connected sample; raise p or attempts");
}

Graph preferential_attachment(Rng& rng, NodeId n, NodeId attach) {
  OPINDYN_EXPECTS(attach >= 1, "attachment count must be >= 1");
  OPINDYN_EXPECTS(n > attach + 1, "need n > attach + 1");
  GraphBuilder builder(n);
  // Unchecked adds throughout: the seed clique enumerates distinct pairs,
  // and each attachment round joins a brand-new node w to `attach`
  // distinct targets, so no duplicate edge can arise.
  const std::int64_t seed_edges =
      static_cast<std::int64_t>(attach + 1) * attach / 2;
  const std::int64_t total_edges =
      seed_edges + static_cast<std::int64_t>(n - attach - 1) * attach;
  builder.reserve(total_edges);
  // Repeated-endpoint list: sampling an element uniformly samples a node
  // proportionally to its current degree.
  std::vector<NodeId> endpoints;
  endpoints.reserve(static_cast<std::size_t>(2 * total_edges));
  for (NodeId u = 0; u <= attach; ++u) {
    for (NodeId v = static_cast<NodeId>(u + 1); v <= attach; ++v) {
      builder.add_edge_unchecked(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  std::vector<NodeId> targets;
  for (NodeId w = static_cast<NodeId>(attach + 1); w < n; ++w) {
    targets.clear();
    while (static_cast<NodeId>(targets.size()) < attach) {
      const NodeId candidate = endpoints[static_cast<std::size_t>(
          rng.next_below(endpoints.size()))];
      if (std::find(targets.begin(), targets.end(), candidate) ==
          targets.end()) {
        targets.push_back(candidate);
      }
    }
    for (const NodeId t : targets) {
      builder.add_edge_unchecked(w, t);
      endpoints.push_back(w);
      endpoints.push_back(t);
    }
  }
  return builder.build("pref_attach(" + std::to_string(n) + "," +
                       std::to_string(attach) + ")");
}

}  // namespace gen
}  // namespace opindyn
