// Cell-level work scheduling -- the one implementation of the library's
// thread-count-determinism contract.
//
// Monte-Carlo work is always the same shape: a batch ("cell") of R
// independent replicas, where replica r draws all randomness from the
// deterministic child stream Rng::fork(seed, r), and a few metrics (and
// optionally streamed result rows) are collected per replica.  The
// CellScheduler runs *many* such batches over one shared ThreadPool:
// `submit` enqueues a batch's replica units and returns immediately with
// a ReplicaBatch handle, so every cell of a sweep grid is in flight at
// once and small cells no longer leave cores idle.  A unit runs one
// replica, or (`submit_groups`, which also streams rows) a group of
// consecutive replicas that the lane kernel steps together; each replica
// writes into its own preallocated slot, and folding always happens in
// strict replica order on the caller's thread -- neither the random
// streams nor the fold order depend on shard or group boundaries, so
// aggregated statistics and streamed row blocks are bit-identical for
// every thread count.
//
// Every replica harness goes through this class: the scenario engine's
// batch runner via `submit` / `submit_groups`, and the benches /
// examples / tests that run one standalone batch via the synchronous
// `run`.
#ifndef OPINDYN_SUPPORT_CELL_SCHEDULER_H
#define OPINDYN_SUPPORT_CELL_SCHEDULER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/support/metrics.h"
#include "src/support/rng.h"
#include "src/support/row_block.h"
#include "src/support/stats.h"
#include "src/support/thread_pool.h"

namespace opindyn {

class CancelToken;  // see src/service/cancel_token.h

/// Derives an independent 64-bit sub-seed from (seed, salt); used to give
/// each sub-experiment of a run (e.g. the voter race vs the averaging
/// race) its own stream family.
std::uint64_t subseed(std::uint64_t seed, std::uint64_t salt) noexcept;

/// One replica of a scheduler unit: its index, its forked stream
/// Rng::fork(seed, replica), its metric slots (pre-filled with NaN = "no
/// sample") and its row emitter (see RowStream; without a stream its rows
/// are dropped).
struct ReplicaSlot {
  std::int64_t replica = 0;
  Rng rng;
  std::span<double> out;
  RowEmitter rows;
};

/// Handle to one submitted batch of replica units.  All accessors block
/// until the batch has fully run (and rethrow the first unit exception),
/// so a caller that submits many batches and folds them in batch order
/// observes results independent of completion order.
class ReplicaBatch {
 public:
  /// Unit body: replica index, the replica's forked stream and its
  /// metric slots (pre-filled with NaN = "no sample").
  using Body = std::function<void(std::int64_t, Rng&, std::span<double>)>;
  /// Unit body over consecutive replicas (CellScheduler::submit_groups):
  /// one slot per replica, in replica order.
  using GroupBody = std::function<void(std::span<ReplicaSlot>)>;

  /// True once every unit has run (non-blocking).
  bool done() const;
  /// Blocks until done; rethrows the first unit exception, if any.
  void wait();

  /// Per-metric statistics folded over replicas in index order, skipping
  /// NaN slots.  Blocks; the fold is computed once and cached.
  const std::vector<RunningStats>& stats();
  /// The raw per-replica metric matrix, row-major replicas x metrics
  /// (NaN = no sample).  Blocks.
  const std::vector<double>& samples();
  /// samples()[replica * metrics + metric].
  double sample(std::int64_t replica, std::size_t metric);

  std::int64_t replicas() const noexcept { return replicas_; }
  std::size_t metrics() const noexcept { return metric_count_; }
  /// Replicas per unit (the last unit may hold fewer).
  std::int64_t group() const noexcept { return group_; }
  /// Scheduler units of the batch: ceil(replicas / group).
  std::int64_t units() const noexcept {
    return (replicas_ + group_ - 1) / group_;
  }

 private:
  friend class CellScheduler;
  ReplicaBatch(std::int64_t replicas, std::int64_t group,
               std::uint64_t seed, std::size_t metrics, GroupBody body,
               const RowStream* rows);

  /// Runs units [begin, end); never throws (failures are captured and
  /// rethrown by wait()).
  void run_range(std::int64_t begin, std::int64_t end) noexcept;
  /// The instrumented unit loop body (out of line so the common
  /// metrics-off path stays branch-only).
  void run_unit_instrumented(std::int64_t unit);
  void run_unit(std::int64_t unit);

  const std::int64_t replicas_;
  const std::int64_t group_;
  const std::size_t metric_count_;
  const std::uint64_t seed_;
  const GroupBody body_;
  /// Where each replica's row block goes when its unit returns (nullptr =
  /// rows are dropped); owned by the submitter, outlives the units.
  const RowStream* const rows_;
  /// Observability (all nullptr/empty when metrics are off): the
  /// scheduler's registry at submit time, the submit label that tags
  /// this batch's spans and counters ("cell/3", "prefetch", ...), and
  /// the scheduler's in-flight unit counter (shared so a batch that
  /// outlives its scheduler never writes through a dangling pointer).
  MetricsRegistry* metrics_registry_ = nullptr;
  std::string label_;
  std::shared_ptr<std::atomic<std::int64_t>> inflight_;
  /// Captured from the submitting thread's ambient CancelScope (see
  /// src/service/cancel_token.h); checked before each unit starts and
  /// re-installed around the unit body so nested bursts can poll.
  /// nullptr (no ambient token) keeps the whole path to one branch.
  const CancelToken* cancel_ = nullptr;
  std::vector<double> buffer_;  // replicas x metrics, NaN-filled

  mutable std::mutex mutex_;
  std::condition_variable all_done_;
  std::int64_t pending_;  // units not yet finished
  std::exception_ptr error_;
  /// Cancellation travels as the token's static reason string, never as
  /// an exception_ptr: wait() throws a fresh CancelledError on the
  /// waiting thread, so no exception object (whose refcount lives in
  /// uninstrumented libstdc++) is ever shared with a pool thread.
  const char* cancel_reason_ = nullptr;
  bool folded_ = false;
  std::vector<RunningStats> stats_;
};

class CellScheduler {
 public:
  /// 0 = hardware concurrency.  The pool is spawned lazily on the first
  /// parallel submission and shared by every batch of this scheduler.
  explicit CellScheduler(std::size_t threads = 0);

  /// Destruction drains the pool, so unit bodies never outlive the
  /// objects a caller keeps alive past the scheduler.
  ~CellScheduler() = default;

  CellScheduler(const CellScheduler&) = delete;
  CellScheduler& operator=(const CellScheduler&) = delete;

  /// Enqueues `replicas` independent units for body(r, rng, out) and
  /// returns immediately.  Unit r draws from Rng::fork(seed, r).  With 1
  /// thread the batch runs inline before returning -- results are
  /// bit-identical either way.
  ///
  /// Safe to call from several threads at once (the serve-mode workers
  /// share one scheduler): the pool is created under a latch and the
  /// submit label is per-thread.  The submitting thread's ambient
  /// CancelToken (if any) is captured onto the batch: remaining units
  /// of a cancelled batch are skipped and wait() throws a
  /// CancelledError carrying the token's reason.
  std::shared_ptr<ReplicaBatch> submit(std::int64_t replicas,
                                       std::uint64_t seed,
                                       std::size_t metrics,
                                       ReplicaBatch::Body body);

  /// submit with units of `group` consecutive replicas: unit u runs
  /// body over the slots of replicas [u * group, min((u + 1) * group,
  /// replicas)), each with its own fork(seed, r) stream, metric slots
  /// and row emitter, so folds see exactly the per-replica data of
  /// submit.  Units, not replicas, are what the scheduler counters,
  /// trace spans and cancellation checks count; submit is the group = 1
  /// case.  With a `rows` stream (which must outlive the batch's units),
  /// replica r's row block goes to rows->deliver(r, ...) as soon as its
  /// unit returns; a replica's rows never depend on the thread or the
  /// group that ran it, so the blocks are identical for every thread
  /// count and group width and only their arrival order varies.
  std::shared_ptr<ReplicaBatch> submit_groups(
      std::int64_t replicas, std::int64_t group, std::uint64_t seed,
      std::size_t metrics, ReplicaBatch::GroupBody body,
      const RowStream* rows = nullptr);

  /// Records every batch the constructing thread submits, to any
  /// scheduler, while it lives.  A caller that can unwind before it has
  /// waited on all it started -- the engine's runner, when a cell's fold
  /// throws before it reaches the cell's other batches -- calls
  /// wait_all() so no unit outlives the data its body references.
  class SubmitLog {
   public:
    SubmitLog();
    ~SubmitLog();
    SubmitLog(const SubmitLog&) = delete;
    SubmitLog& operator=(const SubmitLog&) = delete;

    /// Blocks until every recorded batch has finished.  Their failures
    /// and cancellations are the folds' to report, so they are dropped.
    void wait_all() noexcept;
    /// Sum of ReplicaBatch::units() over the recorded batches.
    std::int64_t units() const noexcept;

   private:
    friend class CellScheduler;
    std::vector<std::shared_ptr<ReplicaBatch>> batches_;
    SubmitLog* previous_;
  };

  /// Queues `count` runs of `task` behind the work already queued, for
  /// idle workers to pick up.  Unlike submit, nothing waits for them or
  /// counts them, and with one thread nothing is queued: the task is
  /// help, never needed work.  It must own what it touches, since it may
  /// run after the offering call -- or the whole run -- has returned, and
  /// return at once when there is nothing left to help with.
  void offer(std::size_t count, const std::function<void()>& task);

  /// Synchronous convenience: submit + wait + fold.
  std::vector<RunningStats> run(std::int64_t replicas, std::uint64_t seed,
                                std::size_t metrics,
                                const ReplicaBatch::Body& body);

  std::size_t threads() const noexcept { return threads_; }

  /// Observability hooks (see support/metrics.h).  With a registry set,
  /// every unit records a trace span named after the submit
  /// label, bumps the scheduler counters, and runs under a MetricsScope
  /// so library-level metrics::count calls are attributed to the label.
  /// nullptr (the default) keeps the whole path to a pointer check.
  void set_metrics(MetricsRegistry* registry) noexcept {
    metrics_registry_ = registry;
  }
  MetricsRegistry* metrics() const noexcept { return metrics_registry_; }
  /// Label stamped on batches submitted from now on BY THIS THREAD (the
  /// runner sets "cell/<index>" around each scenario start and
  /// "prefetch" around the graph prefetch pass).  Per-thread so
  /// concurrent jobs sharing a scheduler never race on the label.
  void set_submit_label(std::string label);

  /// High-water mark of units submitted but not yet finished -- the
  /// queue-depth gauge of the run report.  Timing-dependent, so it
  /// lives outside the deterministic counter section.  Only tracked
  /// while a metrics registry is set.
  std::int64_t max_inflight_units() const noexcept {
    return max_inflight_->load(std::memory_order_relaxed);
  }

 private:
  /// The pool, spawned on first use.
  ThreadPool& pool();

  std::size_t threads_;
  std::once_flag pool_once_;
  std::unique_ptr<ThreadPool> pool_;
  MetricsRegistry* metrics_registry_ = nullptr;
  std::shared_ptr<std::atomic<std::int64_t>> inflight_ =
      std::make_shared<std::atomic<std::int64_t>>(0);
  std::shared_ptr<std::atomic<std::int64_t>> max_inflight_ =
      std::make_shared<std::atomic<std::int64_t>>(0);
};

}  // namespace opindyn

#endif  // OPINDYN_SUPPORT_CELL_SCHEDULER_H
