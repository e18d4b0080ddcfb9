#include "src/support/attempt_search.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "src/service/cancel_token.h"
#include "src/support/cell_scheduler.h"

namespace opindyn {
namespace {

/// The state the caller and its helpers share.  Owned by shared_ptr: a
/// helper queued behind other work may start after the search is over,
/// and then only reads `closed` and leaves.
class Search {
 public:
  Search(const Rng& start, std::int64_t max_attempts, std::uint64_t words,
         std::function<SearchAttempt()> make_attempt,
         const CancelToken* cancel)
      : max_attempts_(max_attempts),
        words_(words),
        make_attempt_(std::move(make_attempt)),
        cancel_(cancel),
        base_start_(start) {}

  /// Claims and runs attempts until none is left to claim.
  void work();

  /// The caller's side: work, wait for the running attempts, check the
  /// chain; repeats from the true end state after a broken link.
  SearchResult finish(Rng& rng);

  /// Waits for the running attempts and ends the search (the unwind
  /// path: finish() closes on every path it returns or throws by).
  void close();

 private:
  struct Slot {
    Rng start;
    Rng end;
    bool done = false;
    bool accepted = false;
  };

  /// Where the next attempt starts.  Caller holds mutex_.
  Rng next_start_locked();

  const std::int64_t max_attempts_;
  const std::uint64_t words_;
  const std::function<SearchAttempt()> make_attempt_;
  /// The caller's token.  Read only under mutex_ while the search is
  /// open: the caller, which keeps it alive, does not return before it
  /// closes the search.
  const CancelToken* const cancel_;

  std::mutex mutex_;
  std::condition_variable idle_;
  std::optional<Rng::Jump> jump_;  // x^words mod P, on first need
  std::int64_t base_ = 0;          // index of slots_[0]
  Rng base_start_;                 // attempt base_'s true start
  std::vector<Slot> slots_;        // claimed attempts, in index order
  std::int64_t lowest_accepted_ = INT64_MAX;
  int running_ = 0;
  bool closed_ = false;
  const char* cancel_reason_ = nullptr;
  std::exception_ptr error_;
};

Rng Search::next_start_locked() {
  if (slots_.empty()) {
    return base_start_;
  }
  const Slot& previous = slots_.back();
  if (previous.done) {
    return previous.end;
  }
  if (!jump_) {
    jump_ = Rng::jump_polynomial(words_);
  }
  Rng start = previous.start;
  start.jump(*jump_);
  return start;
}

void Search::work() {
  SearchAttempt attempt;  // made on the first claim: late helpers skip it
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    const std::int64_t index =
        base_ + static_cast<std::int64_t>(slots_.size());
    if (closed_ || cancel_reason_ != nullptr || error_ ||
        index >= std::min(lowest_accepted_, max_attempts_)) {
      return;
    }
    if (cancel_ != nullptr && cancel_->cancelled()) {
      cancel_reason_ = cancel_->reason();
      return;
    }
    Rng rng = next_start_locked();
    slots_.push_back(Slot{rng, rng});
    ++running_;
    lock.unlock();

    bool accepted = false;
    std::exception_ptr failure;
    try {
      if (!attempt) {
        attempt = make_attempt_();
      }
      accepted = attempt(index, rng);
    } catch (...) {
      failure = std::current_exception();
    }

    lock.lock();
    Slot& slot = slots_[static_cast<std::size_t>(index - base_)];
    slot.end = rng;
    slot.done = true;
    slot.accepted = accepted;
    if (accepted) {
      lowest_accepted_ = std::min(lowest_accepted_, index);
    }
    if (failure && !error_) {
      error_ = failure;
    }
    if (--running_ == 0) {
      idle_.notify_all();
    }
  }
}

SearchResult Search::finish(Rng& rng) {
  SearchResult result;
  while (true) {
    work();
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return running_ == 0; });
    if (error_ || cancel_reason_ != nullptr) {
      closed_ = true;
      if (error_) {
        std::rethrow_exception(error_);
      }
      throw CancelledError(cancel_reason_);
    }
    const auto claimed = static_cast<std::int64_t>(slots_.size());
    std::int64_t broken = -1;
    for (std::int64_t i = 0; i < claimed; ++i) {
      const auto at = static_cast<std::size_t>(i);
      const Slot& slot = slots_[at];
      if (i > 0 && !(slot.start == slots_[at - 1].end)) {
        broken = i;
        break;
      }
      if (slot.accepted) {
        result.accepted = base_ + i;
        result.discarded += claimed - 1 - i;
        rng = slot.end;
        closed_ = true;
        return result;
      }
    }
    if (broken < 0) {
      // Every attempt ran and was rejected.
      rng = slots_.empty() ? base_start_ : slots_.back().end;
      closed_ = true;
      return result;
    }
    result.discarded += claimed - broken;
    base_start_ = slots_[static_cast<std::size_t>(broken - 1)].end;
    base_ += broken;
    slots_.clear();
    lowest_accepted_ = INT64_MAX;
  }
}

void Search::close() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return running_ == 0; });
  closed_ = true;
}

}  // namespace

SearchResult search_attempts(Rng& rng, std::int64_t max_attempts,
                             std::uint64_t words_per_attempt,
                             std::function<SearchAttempt()> make_attempt,
                             CellScheduler* workers) {
  const auto search = std::make_shared<Search>(
      rng, max_attempts, words_per_attempt, std::move(make_attempt),
      cancel::current());
  if (workers != nullptr) {
    workers->offer(workers->threads() - 1, [search] { search->work(); });
  }
  try {
    return search->finish(rng);
  } catch (...) {
    search->close();
    throw;
  }
}

}  // namespace opindyn
