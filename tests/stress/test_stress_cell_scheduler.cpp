// Concurrency stress for the CellScheduler / ReplicaBatch seam (run
// under ThreadSanitizer by the tsan CI job).  The contract under load:
// many batches in flight at once on one shared pool, folds in batch
// order on the caller's thread while later batches are still running,
// results bit-identical to a single-threaded scheduler, batches safely
// outliving their scheduler, and unit exceptions surfacing exactly once
// per accessor instead of tearing the fold.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/support/cell_scheduler.h"

namespace opindyn {
namespace {

/// Collects one batch's per-replica row blocks as its units deliver
/// them, from whichever pool thread ran each replica.
struct BlockCollector {
  explicit BlockCollector(std::int64_t replicas)
      : blocks(static_cast<std::size_t>(replicas)) {
    stream.deliver = [this](std::int64_t r, RowBlock block) {
      const std::lock_guard<std::mutex> lock(mutex);
      blocks.at(static_cast<std::size_t>(r)) = std::move(block);
    };
  }
  std::mutex mutex;
  std::vector<std::optional<RowBlock>> blocks;
  RowStream stream;
};

/// A unit body with enough arithmetic per replica that batches genuinely
/// overlap on the pool, one replica per unit (submit_groups with group
/// 1, the entry point that takes a row stream).  Streams one row per
/// replica so the row channel is exercised too.
ReplicaBatch::GroupBody worky_body(std::int64_t spin) {
  return [spin](std::span<ReplicaSlot> slots) {
    for (ReplicaSlot& slot : slots) {
      double acc = 0.0;
      for (std::int64_t i = 0; i < spin; ++i) {
        acc += slot.rng.next_double();
      }
      slot.out[0] = acc;
      // Always draw the second value so the rng stream is identical at
      // every metric count, but only store it when the batch actually
      // has a second metric slot (the span is exactly metric_count wide
      // -- TSan caught an out[1] heap overflow here under metrics=1).
      const double tail = static_cast<double>(slot.rng.next_below(1000));
      if (slot.out.size() > 1) {
        slot.out[1] = tail;
      }
      slot.rows.row().integer(slot.replica).general(tail);
    }
  };
}

TEST(StressCellScheduler, BurstyBatchesFoldIdenticallyToSingleThread) {
  constexpr int kBatches = 32;
  constexpr std::int64_t kReplicas = 16;
  constexpr std::size_t kMetrics = 2;

  // Reference: everything inline on one thread.
  std::vector<std::vector<double>> expected_means(kBatches);
  {
    CellScheduler reference(1);
    for (int b = 0; b < kBatches; ++b) {
      auto batch = reference.submit_groups(kReplicas, 1, 1000 + b, kMetrics,
                                           worky_body(200 + b));
      std::vector<double> means;
      for (const RunningStats& stats : batch->stats()) {
        means.push_back(stats.mean());
      }
      expected_means[static_cast<std::size_t>(b)] = std::move(means);
    }
  }

  // Stressed: all batches submitted up front, folds in batch order while
  // later batches still run on 8 workers.
  CellScheduler scheduler(8);
  std::vector<std::unique_ptr<BlockCollector>> collected;
  std::vector<std::shared_ptr<ReplicaBatch>> batches;
  batches.reserve(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    collected.push_back(std::make_unique<BlockCollector>(kReplicas));
    batches.push_back(scheduler.submit_groups(kReplicas, 1, 1000 + b,
                                              kMetrics, worky_body(200 + b),
                                              &collected.back()->stream));
  }
  for (int b = 0; b < kBatches; ++b) {
    auto& batch = batches[static_cast<std::size_t>(b)];
    const std::vector<RunningStats>& stats = batch->stats();
    ASSERT_EQ(stats.size(), kMetrics);
    for (std::size_t m = 0; m < kMetrics; ++m) {
      // Bitwise: the fold runs in replica order on the calling thread,
      // so thread count must not move a single ULP.
      EXPECT_EQ(stats[m].mean(),
                expected_means[static_cast<std::size_t>(b)][m])
          << "batch " << b << " metric " << m;
    }
    // Every replica delivered exactly its own one-row block.
    for (std::int64_t r = 0; r < kReplicas; ++r) {
      const auto& block =
          collected[static_cast<std::size_t>(b)]
              ->blocks[static_cast<std::size_t>(r)];
      ASSERT_TRUE(block.has_value()) << "batch " << b << " replica " << r;
      EXPECT_EQ(block->rows, 1);
      EXPECT_EQ(block->bytes.substr(0, block->bytes.find(',')),
                std::to_string(r));
    }
  }
}

TEST(StressCellScheduler, FoldsInterleaveWithRunningBatches) {
  // Fold each batch immediately after submitting the next, so every
  // stats() call races the pool still working on later batches.
  constexpr int kBatches = 24;
  CellScheduler scheduler(4);
  std::shared_ptr<ReplicaBatch> previous;
  double checksum = 0.0;
  for (int b = 0; b < kBatches; ++b) {
    auto batch = scheduler.submit_groups(8, 1, 77 + b, 1, worky_body(500));
    if (previous) {
      checksum += previous->stats()[0].mean();
      // A second fold of the same batch is the cached result.
      EXPECT_EQ(previous->stats()[0].mean(), previous->stats()[0].mean());
    }
    previous = std::move(batch);
  }
  checksum += previous->stats()[0].mean();
  EXPECT_TRUE(std::isfinite(checksum));
}

TEST(StressCellScheduler, BatchOutlivesItsScheduler) {
  std::shared_ptr<ReplicaBatch> batch;
  {
    CellScheduler scheduler(4);
    batch = scheduler.submit_groups(32, 1, 9, 1, worky_body(1000));
    // Scheduler destruction drains the pool with units mid-flight.
  }
  ASSERT_TRUE(batch->done());
  EXPECT_EQ(batch->stats()[0].count(), 32);
}

TEST(StressCellScheduler, UnitExceptionSurfacesOnEveryAccessor) {
  CellScheduler scheduler(4);
  auto batch = scheduler.submit(
      16, 5, 1,
      [](std::int64_t r, Rng& rng, std::span<double> out) {
        out[0] = rng.next_double();
        if (r == 11) {
          throw std::runtime_error("unit 11 failed");
        }
      });
  EXPECT_THROW(batch->wait(), std::runtime_error);
  // The error is sticky: every later accessor rethrows instead of
  // returning a half-folded result.
  EXPECT_THROW(batch->stats(), std::runtime_error);
  EXPECT_THROW(batch->samples(), std::runtime_error);
}

TEST(StressCellScheduler, ManySmallBatchesKeepReplicaOrderUnderContention) {
  // Tiny batches maximise scheduler overhead relative to work: queue
  // churn, chunk boundaries, and completion notifications all race.
  constexpr int kBatches = 200;
  CellScheduler scheduler(8);
  std::vector<std::unique_ptr<BlockCollector>> collected;
  std::vector<std::shared_ptr<ReplicaBatch>> batches;
  batches.reserve(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    collected.push_back(std::make_unique<BlockCollector>(3));
    batches.push_back(scheduler.submit_groups(
        3, 1, b, 1,
        [](std::span<ReplicaSlot> slots) {
          for (ReplicaSlot& slot : slots) {
            slot.out[0] = static_cast<double>(slot.replica);
            slot.rows.row().integer(slot.replica);
          }
        },
        &collected.back()->stream));
  }
  for (std::size_t b = 0; b < batches.size(); ++b) {
    EXPECT_EQ(batches[b]->sample(2, 0), 2.0);
    for (std::int64_t r = 0; r < 3; ++r) {
      const auto& block =
          collected[b]->blocks[static_cast<std::size_t>(r)];
      ASSERT_TRUE(block.has_value());
      EXPECT_EQ(block->bytes, std::to_string(r) + "\n");
    }
  }
}

}  // namespace
}  // namespace opindyn
