// The CellScheduler's determinism contract at the unit level: batches
// submitted asynchronously fold bit-identically for every thread count,
// streamed row blocks arrive once per replica in emission order, NaN slots mean "no
// sample", unit exceptions surface on wait(), and units grouping several
// replicas (submit_groups) give each one what a unit of its own would.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/support/cell_scheduler.h"

namespace opindyn {
namespace {

/// Units of one replica each that stream rows: only submit_groups takes
/// a row stream, so a per-replica body that emits rows runs through it.
ReplicaBatch::GroupBody one_by_one(
    std::function<void(std::int64_t, Rng&, std::span<double>, RowEmitter&)>
        body) {
  return [body = std::move(body)](std::span<ReplicaSlot> slots) {
    for (ReplicaSlot& slot : slots) {
      body(slot.replica, slot.rng, slot.out, slot.rows);
    }
  };
}

TEST(CellScheduler, ConcurrentBatchesFoldIdenticallyToSerialOnes) {
  // Submit several interleaved batches ("cells") before folding any of
  // them -- the parallel scheduler has every unit in flight at once.
  const auto body = [](std::uint64_t salt) {
    return [salt](std::int64_t r, Rng& rng, std::span<double> out) {
      double acc = static_cast<double>(salt);
      for (int i = 0; i < 50; ++i) {
        acc += rng.next_double();
      }
      out[0] = acc;
      out[1] = static_cast<double>(r);
    };
  };

  std::vector<std::vector<RunningStats>> folded[2];
  const std::size_t thread_counts[2] = {1, 8};
  for (int t = 0; t < 2; ++t) {
    CellScheduler scheduler(thread_counts[t]);
    std::vector<std::shared_ptr<ReplicaBatch>> batches;
    for (std::uint64_t cell = 0; cell < 6; ++cell) {
      batches.push_back(
          scheduler.submit(33, subseed(9, cell), 2, body(cell)));
    }
    for (const auto& batch : batches) {
      folded[t].push_back(batch->stats());
    }
  }
  ASSERT_EQ(folded[0].size(), folded[1].size());
  for (std::size_t cell = 0; cell < folded[0].size(); ++cell) {
    for (std::size_t m = 0; m < 2; ++m) {
      EXPECT_EQ(folded[0][cell][m].mean(), folded[1][cell][m].mean());
      EXPECT_EQ(folded[0][cell][m].variance(),
                folded[1][cell][m].variance());
      EXPECT_EQ(folded[0][cell][m].count(), 33);
    }
  }
}

TEST(CellScheduler, StreamedRowsKeepReplicaThenEmissionOrder) {
  for (const std::size_t threads : {1u, 4u}) {
    CellScheduler scheduler(threads);
    std::mutex mutex;
    std::vector<std::optional<RowBlock>> blocks(10);
    RowStream stream;
    stream.prefix = "p,";
    stream.width = 1;
    stream.deliver = [&](std::int64_t r, RowBlock block) {
      const std::lock_guard<std::mutex> lock(mutex);
      ASSERT_FALSE(blocks[static_cast<std::size_t>(r)].has_value());
      blocks[static_cast<std::size_t>(r)] = std::move(block);
    };
    auto batch = scheduler.submit_groups(
        10, 1, 3, 1,
        one_by_one([](std::int64_t r, Rng&, std::span<double> out,
                      RowEmitter& rows) {
          out[0] = static_cast<double>(r);
          for (int i = 0; i < 3; ++i) {
            rows.row().text(std::to_string(r) + ":" + std::to_string(i));
          }
        }),
        &stream);
    batch->wait();
    // One block per replica, delivered once, holding that replica's
    // rows in emission order behind the stream's prefix.
    for (std::int64_t r = 0; r < 10; ++r) {
      const auto& block = blocks[static_cast<std::size_t>(r)];
      ASSERT_TRUE(block.has_value()) << threads << " replica " << r;
      EXPECT_EQ(block->rows, 3);
      const std::string id = std::to_string(r);
      EXPECT_EQ(block->bytes,
                "p," + id + ":0\np," + id + ":1\np," + id + ":2\n");
    }
  }
}

TEST(CellScheduler, FailedReplicasDeliverNoRows) {
  for (const std::size_t threads : {1u, 4u}) {
    CellScheduler scheduler(threads);
    std::mutex mutex;
    std::vector<std::int64_t> delivered;
    RowStream stream;
    stream.deliver = [&](std::int64_t r, RowBlock) {
      const std::lock_guard<std::mutex> lock(mutex);
      delivered.push_back(r);
    };
    auto batch = scheduler.submit_groups(
        1, 1, 1, 1,
        one_by_one([](std::int64_t, Rng&, std::span<double>, RowEmitter& rows) {
          rows.row().integer(1);
          throw std::runtime_error("replica failed after emitting");
        }),
        &stream);
    EXPECT_THROW(batch->wait(), std::runtime_error);
    EXPECT_TRUE(delivered.empty()) << threads;
  }
}

// Group units: submit_groups hands each unit the slots of consecutive
// replicas, and every replica must see exactly what a unit of its own
// gives it -- its fork(seed, r) stream, its own metric slots and its own
// row block.
struct PerReplica {
  std::vector<double> samples;
  std::vector<std::string> rows;
  std::int64_t units_run = 0;
};

PerReplica run_grouped(std::size_t threads, std::int64_t replicas,
                       std::int64_t group) {
  CellScheduler scheduler(threads);
  MetricsRegistry registry;
  scheduler.set_metrics(&registry);
  std::mutex mutex;
  PerReplica out;
  out.rows.resize(static_cast<std::size_t>(replicas));
  RowStream stream;
  stream.prefix = "p,";
  stream.deliver = [&](std::int64_t r, RowBlock block) {
    const std::lock_guard<std::mutex> lock(mutex);
    out.rows[static_cast<std::size_t>(r)] += block.bytes;
  };
  const auto draw = [](std::int64_t r, Rng& rng, std::span<double> slot,
                       RowEmitter& rows) {
    slot[0] = rng.next_double();
    slot[1] = static_cast<double>(r);
    rows.row().integer(r).integer(static_cast<std::int64_t>(rng() >> 33));
  };
  std::shared_ptr<ReplicaBatch> batch;
  if (group == 0) {
    batch = scheduler.submit_groups(replicas, 1, 77, 2, one_by_one(draw),
                                    &stream);
  } else {
    batch = scheduler.submit_groups(
        replicas, group, 77, 2,
        [&draw, group](std::span<ReplicaSlot> slots) {
          EXPECT_LE(static_cast<std::int64_t>(slots.size()), group);
          EXPECT_EQ(slots.front().replica % group, 0);
          for (std::size_t i = 0; i < slots.size(); ++i) {
            EXPECT_EQ(slots[i].replica, slots.front().replica +
                                            static_cast<std::int64_t>(i));
            draw(slots[i].replica, slots[i].rng, slots[i].out,
                 slots[i].rows);
          }
        },
        &stream);
  }
  out.samples = batch->samples();
  out.units_run = registry.fold().counters.at("scheduler.units_run");
  return out;
}

TEST(CellSchedulerGroups, EveryReplicaKeepsItsStreamSlotsAndRows) {
  for (const std::int64_t replicas : {1, 5, 8, 17}) {
    const PerReplica reference = run_grouped(1, replicas, 0);
    EXPECT_EQ(reference.units_run, replicas);
    for (const std::int64_t group : {1, 3, 4, 8}) {
      for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE("replicas=" + std::to_string(replicas) +
                     " group=" + std::to_string(group) +
                     " threads=" + std::to_string(threads));
        const PerReplica grouped = run_grouped(threads, replicas, group);
        EXPECT_EQ(grouped.samples, reference.samples);
        EXPECT_EQ(grouped.rows, reference.rows);
        EXPECT_EQ(grouped.units_run, (replicas + group - 1) / group);
      }
    }
  }
}

TEST(CellSchedulerGroups, AFailedUnitDeliversNoRowsAndSurfacesOnWait) {
  for (const std::size_t threads : {1u, 4u}) {
    CellScheduler scheduler(threads);
    std::mutex mutex;
    std::vector<std::int64_t> delivered;
    RowStream stream;
    stream.deliver = [&](std::int64_t r, RowBlock) {
      const std::lock_guard<std::mutex> lock(mutex);
      delivered.push_back(r);
    };
    auto batch = scheduler.submit_groups(
        8, 4, 1, 1,
        [](std::span<ReplicaSlot> slots) {
          for (ReplicaSlot& slot : slots) {
            slot.rows.row().integer(slot.replica);
          }
          if (slots.front().replica == 4) {
            throw std::runtime_error("unit failed after emitting");
          }
        },
        &stream);
    EXPECT_THROW(batch->wait(), std::runtime_error);
    std::sort(delivered.begin(), delivered.end());
    EXPECT_EQ(delivered, (std::vector<std::int64_t>{0, 1, 2, 3})) << threads;
  }
}

TEST(CellScheduler, NanSlotsAreSkippedByTheFoldButKeptInSamples) {
  CellScheduler scheduler(4);
  auto batch = scheduler.submit(
      8, 1, 2, [](std::int64_t r, Rng&, std::span<double> out) {
        if (r % 2 == 0) {
          out[0] = 1.0;
        }
        out[1] = 2.0;
      });
  EXPECT_EQ(batch->stats()[0].count(), 4);
  EXPECT_EQ(batch->stats()[1].count(), 8);
  EXPECT_TRUE(std::isnan(batch->sample(1, 0)));
  EXPECT_EQ(batch->sample(0, 0), 1.0);
  EXPECT_EQ(batch->samples().size(), 16u);
}

TEST(CellScheduler, UnitExceptionsSurfaceOnWait) {
  for (const std::size_t threads : {1u, 4u}) {
    CellScheduler scheduler(threads);
    auto batch = scheduler.submit(
        16, 1, 1,
        [](std::int64_t r, Rng&, std::span<double>) {
          if (r == 11) {
            throw std::runtime_error("unit 11 failed");
          }
        });
    EXPECT_THROW(batch->wait(), std::runtime_error) << threads;
  }
}

TEST(CellScheduler, SubmitLogWaitsForEveryBatchSubmittedInItsScope) {
  // A caller that unwinds after waiting on only one of its batches (the
  // runner, when a fold's first batch reports a cancellation) must still
  // outlive the other batch's units: wait_all returns only once every
  // batch submitted under the log has finished, and swallows failures.
  CellScheduler scheduler(2);
  std::atomic<bool> release{false};
  std::atomic<int> finished{0};
  // Before the log.
  scheduler.submit(1, 1, 1, [](std::int64_t, Rng&, std::span<double>) {});
  CellScheduler::SubmitLog outer;
  auto failing = scheduler.submit(
      1, 2, 1, [&finished](std::int64_t, Rng&, std::span<double>) {
        ++finished;
        throw std::runtime_error("fails first");
      });
  {
    // An inner log records its own scope only, then hands back.
    CellScheduler::SubmitLog inner;
    scheduler.submit(1, 3, 1, [](std::int64_t, Rng&, std::span<double>) {});
    inner.wait_all();
  }
  auto slow = scheduler.submit(
      1, 4, 1, [&](std::int64_t, Rng&, std::span<double>) {
        while (!release.load()) {
          std::this_thread::yield();
        }
        ++finished;
      });
  EXPECT_THROW(failing->wait(), std::runtime_error);
  EXPECT_FALSE(slow->done());
  std::thread releaser([&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.store(true);
  });
  outer.wait_all();
  EXPECT_TRUE(slow->done());
  EXPECT_EQ(finished.load(), 2);
  releaser.join();
}

TEST(CellScheduler, SynchronousRunIsSubmitPlusFold) {
  // The sync convenience used by standalone benches and tests is just
  // submit + fold.
  CellScheduler scheduler(3);
  const std::vector<RunningStats> stats = scheduler.run(
      20, 7, 1, [](std::int64_t, Rng& rng, std::span<double> out) {
        out[0] = rng.next_double();
      });
  EXPECT_EQ(stats[0].count(), 20);
  EXPECT_GT(stats[0].mean(), 0.0);
  EXPECT_LT(stats[0].mean(), 1.0);
}

TEST(CellScheduler, ZeroThreadsMeansAtLeastOne) {
  // 0 resolves to every hardware thread, and never to an empty pool.
  EXPECT_GE(CellScheduler(0).threads(), 1u);
}

TEST(CellScheduler, SubseedIsStableAndSaltSensitive) {
  EXPECT_EQ(subseed(1, 2), subseed(1, 2));
  EXPECT_NE(subseed(1, 2), subseed(1, 3));
  EXPECT_NE(subseed(1, 2), subseed(2, 2));
}

}  // namespace
}  // namespace opindyn
