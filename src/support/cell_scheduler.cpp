#include "src/support/cell_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/service/cancel_token.h"
#include "src/support/assert.h"

namespace opindyn {

namespace {

// The submit label is per-thread: serve-mode workers share a scheduler
// and each tags its own submissions (see set_submit_label).
thread_local std::string t_submit_label;
// The innermost live SubmitLog of this thread (nullptr: none).
thread_local CellScheduler::SubmitLog* t_submit_log = nullptr;

}  // namespace

std::uint64_t subseed(std::uint64_t seed, std::uint64_t salt) noexcept {
  // One splitmix64 step over a salted state: the same mixing the Rng
  // seeding uses, so sub-families are as independent as forked streams.
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

ReplicaBatch::ReplicaBatch(std::int64_t replicas, std::int64_t group,
                           std::uint64_t seed, std::size_t metrics,
                           GroupBody body, const RowStream* rows)
    : replicas_(replicas),
      group_(group),
      metric_count_(metrics),
      seed_(seed),
      body_(std::move(body)),
      rows_(rows),
      buffer_(static_cast<std::size_t>(replicas) * metrics,
              std::numeric_limits<double>::quiet_NaN()),
      pending_(units()) {}

void ReplicaBatch::run_unit(std::int64_t unit) {
  const std::int64_t first = unit * group_;
  const std::int64_t last = std::min(first + group_, replicas_);
  std::vector<ReplicaSlot> slots;
  slots.reserve(static_cast<std::size_t>(last - first));
  for (std::int64_t r = first; r < last; ++r) {
    slots.push_back(ReplicaSlot{
        r, Rng::fork(seed_, static_cast<std::uint64_t>(r)),
        std::span<double>(
            buffer_.data() + static_cast<std::size_t>(r) * metric_count_,
            metric_count_),
        rows_ != nullptr ? rows_->emitter() : RowEmitter()});
  }
  body_(slots);
  if (rows_ != nullptr) {
    for (ReplicaSlot& slot : slots) {
      rows_->deliver(slot.replica, slot.rows.take());
    }
  }
}

void ReplicaBatch::run_unit_instrumented(std::int64_t unit) {
  MetricsRegistry& registry = *metrics_registry_;
  const std::uint64_t start_us = registry.now_us();
  {
    // Library code below (e.g. run_until_converged) reports through
    // metrics::count; the scope attributes those counts to this batch's
    // label, which is how the run report's per-cell table is built.
    MetricsScope scope(&registry, label_);
    run_unit(unit);
  }
  const std::uint64_t end_us = registry.now_us();
  MetricsBuffer& buffer = registry.buffer();
  // The span carries the unit's first replica.
  buffer.add_span(TraceSpan{label_, "unit", unit * group_, start_us,
                            end_us - start_us, 0});
  buffer.add_busy(end_us - start_us);
  buffer.count("scheduler.units_run", 1);
  if (inflight_ != nullptr) {
    inflight_->fetch_sub(1, std::memory_order_relaxed);
  }
}

void ReplicaBatch::run_range(std::int64_t begin, std::int64_t end) noexcept {
  try {
    // Re-install the submitting thread's cancel token so unit bodies
    // (and the bursts inside them) can poll it; a cancelled batch skips
    // its remaining units and wait() reports a CancelledError.
    const CancelScope cancel_scope(cancel_);
    for (std::int64_t unit = begin; unit < end; ++unit) {
      if (cancel_ != nullptr && cancel_->cancelled()) {
        throw CancelledError(cancel_->reason());
      }
      if (metrics_registry_ != nullptr) {
        run_unit_instrumented(unit);
      } else {
        run_unit(unit);
      }
    }
  } catch (const CancelledError& cancelled) {
    // Data, not exception_ptr (see cancel_reason_ in the header): the
    // CancelledError thrown here dies on this pool thread; wait()
    // recreates it on the waiting thread from the static reason.
    const std::lock_guard<std::mutex> lock(mutex_);
    if (cancel_reason_ == nullptr) {
      cancel_reason_ = cancelled.reason();
    }
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) {
      error_ = std::current_exception();
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    pending_ -= end - begin;
    if (pending_ > 0) {
      return;
    }
  }
  all_done_.notify_all();
}

bool ReplicaBatch::done() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return pending_ == 0;
}

void ReplicaBatch::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return pending_ == 0; });
  if (error_) {
    // A real unit failure beats a concurrent cancellation: the caller
    // should report the error, not a misleading "cancelled".
    std::rethrow_exception(error_);
  }
  if (cancel_reason_ != nullptr) {
    throw CancelledError(cancel_reason_);
  }
}

const std::vector<RunningStats>& ReplicaBatch::stats() {
  wait();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!folded_) {
    stats_.assign(metric_count_, RunningStats{});
    for (std::int64_t r = 0; r < replicas_; ++r) {
      for (std::size_t m = 0; m < metric_count_; ++m) {
        const double x =
            buffer_[static_cast<std::size_t>(r) * metric_count_ + m];
        if (!std::isnan(x)) {
          stats_[m].add(x);
        }
      }
    }
    folded_ = true;
  }
  return stats_;
}

const std::vector<double>& ReplicaBatch::samples() {
  wait();
  return buffer_;
}

double ReplicaBatch::sample(std::int64_t replica, std::size_t metric) {
  wait();
  OPINDYN_EXPECTS(replica >= 0 && replica < replicas_,
                  "sample(): replica out of range");
  OPINDYN_EXPECTS(metric < metric_count_, "sample(): metric out of range");
  return buffer_[static_cast<std::size_t>(replica) * metric_count_ + metric];
}

CellScheduler::CellScheduler(std::size_t threads)
    : threads_(threads == 0 ? default_parallelism() : threads) {}

CellScheduler::SubmitLog::SubmitLog() : previous_(t_submit_log) {
  t_submit_log = this;
}

CellScheduler::SubmitLog::~SubmitLog() { t_submit_log = previous_; }

void CellScheduler::SubmitLog::wait_all() noexcept {
  for (const auto& batch : batches_) {
    try {
      batch->wait();
    } catch (...) {
    }
  }
}

void CellScheduler::set_submit_label(std::string label) {
  t_submit_label = std::move(label);
}

std::shared_ptr<ReplicaBatch> CellScheduler::submit(std::int64_t replicas,
                                                    std::uint64_t seed,
                                                    std::size_t metrics,
                                                    ReplicaBatch::Body body) {
  return submit_groups(
      replicas, 1, seed, metrics,
      [body = std::move(body)](std::span<ReplicaSlot> slots) {
        for (ReplicaSlot& slot : slots) {
          body(slot.replica, slot.rng, slot.out);
        }
      });
}

std::shared_ptr<ReplicaBatch> CellScheduler::submit_groups(
    std::int64_t replicas, std::int64_t group, std::uint64_t seed,
    std::size_t metrics, ReplicaBatch::GroupBody body,
    const RowStream* rows) {
  OPINDYN_EXPECTS(replicas >= 1, "need at least one replica");
  OPINDYN_EXPECTS(group >= 1, "need at least one replica per unit");
  OPINDYN_EXPECTS(metrics >= 1, "need at least one metric");
  // make_shared is unavailable for the private constructor.
  std::shared_ptr<ReplicaBatch> batch(new ReplicaBatch(
      replicas, group, seed, metrics, std::move(body), rows));
  batch->cancel_ = cancel::current();
  if (t_submit_log != nullptr) {
    t_submit_log->batches_.push_back(batch);
  }
  const std::int64_t units = batch->units();

  if (metrics_registry_ != nullptr) {
    batch->metrics_registry_ = metrics_registry_;
    batch->label_ = t_submit_label;
    batch->inflight_ = inflight_;
    // A run's submissions happen on one thread, so these counters fold
    // to the same totals at every thread count (the determinism
    // contract); buffer() is per-thread, so concurrent submitters from
    // different jobs never contend either.
    MetricsBuffer& buffer = metrics_registry_->buffer();
    buffer.count("scheduler.batches_submitted", 1);
    buffer.count("scheduler.units_submitted", units);
    if (!t_submit_label.empty()) {
      buffer.count_labeled(t_submit_label, "units", units);
      buffer.count_labeled(t_submit_label, "batches", 1);
    }
    // Queue-depth high-water mark, observed at submission (worker-side
    // decrements race this, which only ever under-counts the peak).
    const std::int64_t depth =
        inflight_->fetch_add(units, std::memory_order_relaxed) + units;
    std::int64_t seen = max_inflight_->load(std::memory_order_relaxed);
    while (depth > seen &&
           !max_inflight_->compare_exchange_weak(
               seen, depth, std::memory_order_relaxed)) {
    }
  }

  if (threads_ <= 1) {
    batch->run_range(0, units);
    return batch;
  }
  ThreadPool& workers = pool();
  // Several tasks per thread so many small cells interleave and balance
  // across the pool; the task boundaries never affect the results.
  const std::int64_t max_tasks = static_cast<std::int64_t>(threads_) * 2;
  const std::int64_t tasks = std::min<std::int64_t>(units, max_tasks);
  const std::int64_t chunk = (units + tasks - 1) / tasks;
  for (std::int64_t begin = 0; begin < units; begin += chunk) {
    const std::int64_t end = std::min(begin + chunk, units);
    workers.submit([batch, begin, end] { batch->run_range(begin, end); });
  }
  return batch;
}

ThreadPool& CellScheduler::pool() {
  // Latched creation: concurrent first submissions (serve-mode workers
  // sharing one scheduler) must not race the lazy pool spawn.
  std::call_once(pool_once_,
                 [this] { pool_ = std::make_unique<ThreadPool>(threads_); });
  return *pool_;
}

void CellScheduler::offer(std::size_t count,
                          const std::function<void()>& task) {
  if (threads_ <= 1) {
    return;
  }
  ThreadPool& workers = pool();
  for (std::size_t i = 0; i < count; ++i) {
    workers.submit(task);
  }
}

std::vector<RunningStats> CellScheduler::run(std::int64_t replicas,
                                             std::uint64_t seed,
                                             std::size_t metrics,
                                             const ReplicaBatch::Body& body) {
  return submit(replicas, seed, metrics, body)->stats();
}

}  // namespace opindyn
