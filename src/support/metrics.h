// Low-overhead run metrics: named counters, wall-clock timings and
// trace spans, collected into per-worker buffers and folded
// deterministically at batch end.
//
// Design constraints (the ISSUE-6 contract):
//
//  * Near-zero cost when disabled.  Everything keys off a
//    MetricsRegistry pointer that defaults to nullptr: the CellScheduler
//    checks one pointer per replica unit, and library code calls the
//    free functions in namespace `metrics`, which reduce to one
//    thread_local load + branch when no MetricsScope is installed.
//    Nothing is ever recorded per simulation step -- instrumentation
//    granularity is one replica unit / one phase / one cache build, so
//    golden CSV bytes and BENCH throughput are unchanged either way.
//
//  * Deterministic counters.  Counter increments are attributed to
//    per-worker buffers while units run, then fold() merges them into
//    name-sorted totals; sums are order-independent, so the counter
//    section of a run report is byte-identical at any --threads value.
//    Wall-clock data (timings, spans, busy time, gauges) is inherently
//    timing-dependent and is folded into separate sections that the
//    determinism comparison excludes.
//
//  * Labels give per-cell attribution for free.  The scheduler installs
//    a MetricsScope tagged with the submitting batch's label (the
//    runner labels cells "cell/<index>"), so a counter bumped deep in
//    library code (e.g. engine.steps in run_until_converged) lands both
//    in the global total and in that cell's row of the report's
//    per-cell table -- without threading a handle through every layer.
#ifndef OPINDYN_SUPPORT_METRICS_H
#define OPINDYN_SUPPORT_METRICS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace opindyn {

/// One completed trace span (a Chrome trace-event "X" duration slice).
struct TraceSpan {
  std::string name;      // batch label or phase name, e.g. "cell/3"
  std::string category;  // "unit" | "phase" | "graph_build" | ...
  std::int64_t replica = -1;  // unit spans carry their replica index
  std::uint64_t start_us = 0;  // relative to the registry's epoch
  std::uint64_t duration_us = 0;
  int worker = 0;  // stable per-run worker index; filled by fold()
};

/// One worker thread's private buffer.  Never locked: each thread only
/// writes its own buffer, and fold() runs after the pool has drained.
class MetricsBuffer {
 public:
  void count(const std::string& name, std::int64_t delta);
  /// Counts into the (label, name) cell of the per-label table only;
  /// callers that also want the global total call count() themselves.
  void count_labeled(const std::string& label, const std::string& name,
                     std::int64_t delta);
  void add_span(TraceSpan span);
  void add_busy(std::uint64_t us) { busy_us_ += us; }
  /// Sums into a gauge (see metrics::add_gauge).
  void add_gauge(const std::string& name, std::int64_t delta) {
    gauges_[name] += delta;
  }

 private:
  friend class MetricsRegistry;
  std::map<std::string, std::int64_t> counters_;
  // label -> name -> value
  std::map<std::string, std::map<std::string, std::int64_t>> labeled_;
  std::vector<TraceSpan> spans_;
  std::uint64_t busy_us_ = 0;
  std::map<std::string, std::int64_t> gauges_;
};

/// Per-worker activity summary (nondeterministic: depends on how units
/// landed on threads).
struct WorkerReport {
  int worker = 0;
  std::int64_t spans = 0;
  std::uint64_t busy_us = 0;
};

/// Everything the registry recorded, merged deterministically: maps are
/// name-sorted, per-worker contributions are summed (order-independent),
/// spans are ordered by (worker, start).
struct FoldedMetrics {
  /// Deterministic at any thread count.
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, std::map<std::string, std::int64_t>> labeled;
  /// Wall-clock sections, excluded from determinism comparisons.
  std::map<std::string, double> timings_ms;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, std::uint64_t> label_busy_us;
  std::vector<WorkerReport> workers;
  std::vector<TraceSpan> spans;
};

class MetricsRegistry {
 public:
  /// Construction records the trace epoch: all span timestamps are
  /// microseconds since this instant.
  MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The calling thread's buffer (created on first use; the map lock is
  /// taken once per lookup, not per record, so callers should hold the
  /// reference across a unit).
  MetricsBuffer& buffer();

  /// Microseconds since the registry epoch.
  std::uint64_t now_us() const;

  /// Accumulates a main-thread wall timer (e.g. one runner phase).
  void add_timing(const std::string& name, double ms);
  /// Records a point-in-time observation (e.g. max queue depth).
  void set_gauge(const std::string& name, std::int64_t value);

  /// Merges every buffer.  Call only after all instrumented work has
  /// completed (the runner folds after the scheduler drained).
  FoldedMetrics fold() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  /// Buffers in creation order; worker indices come from this order.
  std::vector<std::pair<std::thread::id, std::unique_ptr<MetricsBuffer>>>
      buffers_;
  std::map<std::string, double> timings_;
  std::map<std::string, std::int64_t> gauges_;
};

/// RAII span: records [construction, destruction) into the calling
/// thread's buffer (and its busy accumulator).  A nullptr registry
/// disables it entirely.
class ScopedSpan {
 public:
  ScopedSpan(MetricsRegistry* registry, std::string name,
             std::string category, std::int64_t replica = -1);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  MetricsRegistry* registry_;
  std::string name_;
  std::string category_;
  std::int64_t replica_;
  std::uint64_t start_us_ = 0;
};

/// Installs `registry` as the calling thread's metrics sink for the
/// scope's lifetime; counts recorded via metrics::count are tagged with
/// `label`.  Scopes nest (the previous sink is restored on exit); a
/// nullptr registry installs nothing.
class MetricsScope {
 public:
  MetricsScope(MetricsRegistry* registry, const std::string& label);
  ~MetricsScope();

  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

 private:
  bool installed_ = false;
  void* frame_ = nullptr;  // the ThreadSink frame this scope owns
};

namespace metrics {

/// True iff a MetricsScope is active on this thread.
bool active() noexcept;

/// Adds `delta` to the named counter of the active scope's registry
/// (global total + the scope's label row).  Without a scope this is one
/// thread_local load and a branch -- safe to call from library code
/// like run_until_converged without an #ifdef.
void count(const char* name, std::int64_t delta = 1);

/// Adds `delta` to a gauge of the active scope's registry: a total that
/// depends on timing (e.g. speculative work thrown away), so it folds
/// into the gauge section, apart from the deterministic counters.
void add_gauge(const char* name, std::int64_t delta);

}  // namespace metrics
}  // namespace opindyn

#endif  // OPINDYN_SUPPORT_METRICS_H
