// Concurrency stress for the MetricsRegistry's per-worker buffers (run
// under ThreadSanitizer by the tsan CI job).  The documented contract:
// each thread records into its own lock-free buffer while buffer
// *creation*, main-thread timings/gauges and now_us() run concurrently
// under the registry lock; fold() merges only after the instrumented
// work has drained (the runner folds after the scheduler drained), and
// its counter section is exact and thread-count-independent.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/support/cell_scheduler.h"
#include "src/support/metrics.h"

namespace opindyn {
namespace {

TEST(StressMetrics, WorkersRecordWhileBuffersSpawnAndTimingsAccumulate) {
  constexpr int kThreads = 8;
  constexpr int kIterations = 2000;
  MetricsRegistry registry;

  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      started.fetch_add(1, std::memory_order_acq_rel);
      while (started.load(std::memory_order_acquire) < kThreads) {
        std::this_thread::yield();
      }
      // Counts through the thread-local scope machinery (the library
      // path), tagged with a per-thread label, plus raw spans -- all
      // racing the other workers' first buffer() lookups.
      MetricsScope scope(&registry, "worker/" + std::to_string(t % 2));
      for (int i = 0; i < kIterations; ++i) {
        metrics::count("stress.iterations", 1);
        if (i % 256 == 0) {
          ScopedSpan span(&registry, "chunk", "stress");
          metrics::count("stress.chunks", 1);
        }
      }
    });
  }
  // The main thread hammers the lock-guarded registry surface while the
  // workers record: wall timers, gauges and epoch reads.
  for (int i = 0; i < 500; ++i) {
    registry.add_timing("main.tick", 0.001);
    registry.set_gauge("main.latest", i);
    (void)registry.now_us();
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  // Fold after the drain: counter totals are exact, split across the
  // two labels, and independent of how threads interleaved.
  const FoldedMetrics folded = registry.fold();
  EXPECT_EQ(folded.counters.at("stress.iterations"),
            static_cast<std::int64_t>(kThreads) * kIterations);
  EXPECT_EQ(folded.counters.at("stress.chunks"),
            static_cast<std::int64_t>(kThreads) * (kIterations / 256 + 1));
  std::int64_t labeled_total = 0;
  for (const auto& [label, counters] : folded.labeled) {
    labeled_total += counters.at("stress.iterations");
  }
  EXPECT_EQ(labeled_total, static_cast<std::int64_t>(kThreads) * kIterations);
  EXPECT_EQ(folded.gauges.at("main.latest"), 499);
  // One buffer per recording thread (the main thread only used the
  // lock-guarded timing/gauge surface, which owns no buffer).
  EXPECT_EQ(folded.workers.size(), static_cast<std::size_t>(kThreads));
}

TEST(StressMetrics, SchedulerCountersAreExactAtAnyThreadCount) {
  // The end-to-end seam the run report depends on: per-worker buffers
  // filled by concurrent replica units, folded after the batches
  // drained.  The deterministic counter section must match the
  // single-threaded run exactly.
  constexpr int kBatches = 12;
  constexpr std::int64_t kReplicas = 20;
  const auto run_with_threads = [](std::size_t threads) {
    MetricsRegistry registry;
    CellScheduler scheduler(threads);
    scheduler.set_metrics(&registry);
    std::vector<std::shared_ptr<ReplicaBatch>> batches;
    for (int b = 0; b < kBatches; ++b) {
      scheduler.set_submit_label("cell/" + std::to_string(b));
      batches.push_back(scheduler.submit(
          kReplicas, 42 + b, 1,
          [](std::int64_t, Rng& rng, std::span<double> out) {
            metrics::count("stress.units", 1);
            out[0] = rng.next_double();
          }));
    }
    for (auto& batch : batches) {
      batch->wait();
    }
    return registry.fold();
  };

  const FoldedMetrics serial = run_with_threads(1);
  const FoldedMetrics parallel = run_with_threads(8);
  EXPECT_EQ(serial.counters.at("stress.units"),
            static_cast<std::int64_t>(kBatches) * kReplicas);
  // The whole deterministic section agrees, not just one counter.
  EXPECT_EQ(serial.counters, parallel.counters);
  EXPECT_EQ(serial.labeled, parallel.labeled);
  EXPECT_EQ(parallel.labeled.at("cell/3").at("stress.units"), kReplicas);
}

}  // namespace
}  // namespace opindyn
