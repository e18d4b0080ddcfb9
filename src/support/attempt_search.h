// Rejection sampling on every worker, with the serial loop's results.
//
// A rejection sampler runs attempts 0, 1, 2, ... on one Rng until one is
// accepted; attempt k starts where attempt k-1 stopped drawing.  When an
// attempt draws a fixed number W of words -- as the pairing model does,
// unless a bounded draw redraws (probability ~2^-48 per draw) -- attempt
// k starts k*W words after attempt 0, and Rng::jump places it there
// without running the attempts before it.  So several workers can run
// attempts at once and still reproduce the serial loop:
//
//  * Attempts are claimed in index order.  The claimer of attempt k
//    starts it at attempt k-1's end state when that attempt has already
//    finished (always, with one worker: the serial loop itself), else
//    speculatively at attempt k-1's start jumped by W words.
//  * Nothing past the lowest accepted attempt is claimed.  Once every
//    claimed attempt has finished, the chain is checked in index order:
//    attempt k counts only if its start equals attempt k-1's end, for
//    every k up to it.  The first accepted attempt on a checked chain
//    wins, so the winner and the Rng's end state are the serial loop's.
//  * A broken link (an attempt drew extra words) throws away everything
//    from that attempt on, and the search continues from the true end
//    state -- in practice serially, since the helpers have gone.
#ifndef OPINDYN_SUPPORT_ATTEMPT_SEARCH_H
#define OPINDYN_SUPPORT_ATTEMPT_SEARCH_H

#include <cstdint>
#include <functional>

#include "src/support/rng.h"

namespace opindyn {

class CellScheduler;

/// One worker's attempt: draws attempt `index` from `rng`, which sits at
/// the attempt's start, and returns true iff it is accepted.  Every
/// worker makes its own (so it may keep scratch buffers) and calls it
/// with increasing indices.
using SearchAttempt = std::function<bool(std::int64_t index, Rng& rng)>;

struct SearchResult {
  /// The winning attempt's index; -1 when all attempts were rejected.
  std::int64_t accepted = -1;
  /// Attempts run speculatively that the result did not need (past the
  /// winner, or after a broken link).  Depends on timing.
  std::int64_t discarded = 0;
};

/// Runs attempts 0 .. max_attempts-1 until one is accepted, and leaves
/// `rng` where the serial loop would: after the winner's words, or after
/// every attempt's.  The calling thread runs attempts itself; with
/// `workers` it also offers threads() - 1 helpers to that scheduler's
/// pool, which run attempts while they find some to claim and never
/// reference the caller's frame (`make_attempt` must own what it
/// touches).  The caller waits only on attempts already running.
/// Between attempts every participant checks the caller's ambient
/// cancel token; a cancelled search throws CancelledError once its
/// running attempts are done, and an attempt's exception is rethrown.
SearchResult search_attempts(Rng& rng, std::int64_t max_attempts,
                             std::uint64_t words_per_attempt,
                             std::function<SearchAttempt()> make_attempt,
                             CellScheduler* workers);

}  // namespace opindyn

#endif  // OPINDYN_SUPPORT_ATTEMPT_SEARCH_H
