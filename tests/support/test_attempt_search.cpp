// search_attempts against the serial rejection loop it replaces: the
// winner, the rng's end state and the exhausted case must match at any
// worker count, also when attempts draw a varying number of words (so
// speculative starts are wrong and the chain check has to catch them).
#include "src/support/attempt_search.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/service/cancel_token.h"
#include "src/support/cell_scheduler.h"

namespace opindyn {
namespace {

constexpr std::uint64_t kWords = 20000;  // ~40 us: helpers get to join

/// Draws kWords words, one more when the first word's low three bits are
/// zero (1 in 8 attempts), and accepts when the last word is 0 mod
/// `accept_mod` (never for 0).
bool toy_attempt(Rng& rng, std::uint64_t accept_mod, bool* extra) {
  const std::uint64_t first = rng();
  std::uint64_t last = first;
  for (std::uint64_t i = 1; i < kWords; ++i) {
    last = rng();
  }
  *extra = (first & 7U) == 0;
  if (*extra) {
    last = rng();
  }
  return accept_mod != 0 && last % accept_mod == 0;
}

struct SerialOutcome {
  std::int64_t accepted = -1;
  int extra_before_winner = 0;
};

SerialOutcome serial_loop(Rng& rng, std::int64_t max_attempts,
                          std::uint64_t accept_mod) {
  SerialOutcome outcome;
  for (std::int64_t k = 0; k < max_attempts; ++k) {
    bool extra = false;
    if (toy_attempt(rng, accept_mod, &extra)) {
      outcome.accepted = k;
      return outcome;
    }
    outcome.extra_before_winner += extra ? 1 : 0;
  }
  return outcome;
}

SearchResult toy_search(Rng& rng, std::int64_t max_attempts,
                        std::uint64_t accept_mod, CellScheduler* workers) {
  return search_attempts(
      rng, max_attempts, kWords,
      [accept_mod]() -> SearchAttempt {
        return [accept_mod](std::int64_t, Rng& attempt_rng) {
          bool extra = false;
          return toy_attempt(attempt_rng, accept_mod, &extra);
        };
      },
      workers);
}

TEST(AttemptSearch, MatchesTheSerialLoopWhenAttemptsDrawExtraWords) {
  int broken_chains = 0;
  for (const std::size_t threads : {1, 2, 4, 8}) {
    CellScheduler scheduler(threads);
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " seed=" + std::to_string(seed));
      Rng serial_rng(seed);
      const SerialOutcome expected = serial_loop(serial_rng, 10000, 24);
      broken_chains += expected.extra_before_winner;
      // From inside a pool unit, as the engine's graph prefetch calls it.
      Rng rng(seed);
      const auto batch = scheduler.submit(
          1, 0, 1,
          [&](std::int64_t, Rng&, std::span<double> out) {
            out[0] = static_cast<double>(
                toy_search(rng, 10000, 24, &scheduler).accepted);
          });
      EXPECT_EQ(static_cast<std::int64_t>(batch->sample(0, 0)),
                expected.accepted);
      EXPECT_TRUE(rng == serial_rng);
      EXPECT_EQ(rng(), serial_rng());
    }
  }
  // Attempts before the winners drew an extra word, so the speculative
  // starts after them were wrong and the fallback had to run.
  EXPECT_GT(broken_chains, 20);
}

TEST(AttemptSearch, ExhaustedSearchLeavesTheRngAfterEveryAttempt) {
  for (const std::size_t threads : {1, 4}) {
    CellScheduler scheduler(threads);
    Rng serial_rng(99);
    EXPECT_EQ(serial_loop(serial_rng, 300, 0).accepted, -1);
    Rng rng(99);
    const SearchResult result = toy_search(rng, 300, 0, &scheduler);
    EXPECT_EQ(result.accepted, -1);
    EXPECT_TRUE(rng == serial_rng) << "threads=" << threads;
  }
}

TEST(AttemptSearch, LateHelpersFindTheSearchOverAndReturn) {
  // Both pool workers are busy, so the helper the search offers stays
  // queued: the caller runs every attempt itself, never waits for the
  // helper, and the helper runs after the search returned.
  CellScheduler scheduler(2);
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  const auto blockers = scheduler.submit(
      2, 0, 1,
      [released](std::int64_t, Rng&, std::span<double>) { released.wait(); });
  Rng serial_rng(7);
  const SerialOutcome expected = serial_loop(serial_rng, 10000, 24);
  Rng rng(7);
  const SearchResult result = toy_search(rng, 10000, 24, &scheduler);
  EXPECT_EQ(result.accepted, expected.accepted);
  EXPECT_EQ(result.discarded, 0);
  EXPECT_TRUE(rng == serial_rng);
  release.set_value();
  blockers->wait();
}

TEST(AttemptSearch, CancelStopsEveryWorkerAndThrowsAfterRunningAttempts) {
  CellScheduler scheduler(4);
  CancelToken token;
  const CancelScope scope(&token);
  std::atomic<int> started{0};
  const auto attempt_factory = [&token, &started]() -> SearchAttempt {
    return [&token, &started](std::int64_t index, Rng& rng) {
      started.fetch_add(1);
      for (std::uint64_t i = 0; i < kWords; ++i) {
        rng();
      }
      if (index == 3) {
        token.cancel("test cancel");
      } else if (index > 3) {
        // Holds each later attempt until the cancel lands, so a descheduled
        // attempt 3 cannot let the other workers run hundreds of attempts
        // first; the deadline keeps a missing cancel from hanging the test.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!token.cancelled() &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
      }
      return false;
    };
  };
  Rng rng(5);
  try {
    search_attempts(rng, 10000, kWords, attempt_factory, &scheduler);
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& error) {
    EXPECT_STREQ(error.reason(), "test cancel");
  }
  // Only attempts claimed before the cancel ran: a few per worker.
  EXPECT_LT(started.load(), 40);
}

TEST(AttemptSearch, AnAttemptsExceptionReachesTheCaller) {
  CellScheduler scheduler(2);
  Rng rng(3);
  EXPECT_THROW(search_attempts(
                   rng, 10000, kWords,
                   []() -> SearchAttempt {
                     return [](std::int64_t index, Rng&) -> bool {
                       if (index == 2) {
                         throw std::runtime_error("attempt failed");
                       }
                       return false;
                     };
                   },
                   &scheduler),
               std::runtime_error);
}

}  // namespace
}  // namespace opindyn
