// Asynchronous Hegselmann-Krause bounded-confidence dynamics
// (arXiv:1910.14465): at each step a uniformly random node u averages
// with exactly those neighbours whose value lies within the confidence
// bound, x_u <- (x_u + sum_{v ~ u, |x_v - x_u| <= eps} x_v) / (1 + #).
// Unlike the unconditional rules, HK fragments into opinion clusters
// separated by more than the confidence bound instead of reaching
// global consensus -- the hegselmann_krause scenario counts those
// clusters (maximal runs of sorted values with gaps <= the bound).  A
// step whose confidant set is empty is a natural no-op.
#ifndef OPINDYN_CORE_HEGSELMANN_KRAUSE_MODEL_H
#define OPINDYN_CORE_HEGSELMANN_KRAUSE_MODEL_H

#include <cstdint>
#include <vector>

#include "src/core/process.h"
#include "src/graph/graph.h"
#include "src/support/rng.h"

namespace opindyn {

/// The bound a hegselmann_krause scenario runs at when its spec sets no
/// confidence=.
inline constexpr double kDefaultConfidence = 0.25;

class HegselmannKrauseModel final : public AveragingProcess {
 public:
  /// `confidence` > 0 is the bound eps: neighbours further away are
  /// ignored.  `lazy` adds the 1/2 no-op coin.
  HegselmannKrauseModel(const Graph& graph, std::vector<double> initial,
                        double confidence, bool lazy);

  NodeSelection step_recorded(Rng& rng) override;
  void step_burst(Rng& rng, std::int64_t n_steps) override;

 protected:
  /// Confidence-bounded update: selection.sample holds the confidant
  /// set in adjacency order; u moves to the mean of itself and them.
  void apply_update(const NodeSelection& selection) override;

 private:
  double confidence_;
  bool lazy_;
};

}  // namespace opindyn

#endif  // OPINDYN_CORE_HEGSELMANN_KRAUSE_MODEL_H
