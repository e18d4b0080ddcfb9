// Concurrency stress for OrderedFlush (run under ThreadSanitizer by the
// tsan CI job).  Contract: blocks may be delivered from any thread in
// any completion order; downstream sinks observe them in strict (cell,
// block) order, one call at a time, with no synchronisation of their
// own; a replica's block is released as soon as every earlier (cell,
// replica) is; and finish_partial after a cancel closes the sinks over
// exactly the released prefix -- never a block after a gap.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/engine/sinks.h"
#include "src/support/rng.h"

namespace opindyn {
namespace engine {
namespace {

/// A block of `rows` rows, each "cell,block,row".
RowBlock block_for(std::size_t cell, std::size_t block, std::size_t rows) {
  RowEmitter emitter;
  for (std::size_t r = 0; r < rows; ++r) {
    emitter.row()
        .integer(static_cast<std::int64_t>(cell))
        .integer(static_cast<std::int64_t>(block))
        .integer(static_cast<std::int64_t>(r));
  }
  return emitter.take();
}

/// Records (cell, block) per row and fails if two threads are ever
/// inside the sink at once -- the flush promises one writer at a time.
class SerialCheckingSink : public RowSink {
 public:
  void begin(const std::vector<std::string>&) override {}
  void row(const std::vector<std::string>& cells) override {
    ASSERT_FALSE(inside_.exchange(true)) << "concurrent sink calls";
    seen_.emplace_back(std::stoul(cells[0]), std::stoul(cells[1]));
    inside_.store(false);
  }
  void finish() override { finished_ = true; }

  const std::vector<std::pair<std::size_t, std::size_t>>& seen() const {
    return seen_;
  }
  bool finished() const { return finished_; }

 private:
  std::atomic<bool> inside_{false};
  std::vector<std::pair<std::size_t, std::size_t>> seen_;
  bool finished_ = false;
};

/// Every (cell, replica) pair of a grid, in a seeded random order.
std::vector<std::pair<std::size_t, std::size_t>> shuffled_pairs(
    std::size_t cells, std::size_t replicas, std::uint64_t seed) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t c = 0; c < cells; ++c) {
    for (std::size_t r = 0; r < replicas; ++r) {
      pairs.emplace_back(c, r);
    }
  }
  Rng rng(seed);
  for (std::size_t i = pairs.size(); i > 1; --i) {
    std::swap(pairs[i - 1], pairs[rng.next_below(i)]);
  }
  return pairs;
}

TEST(StressOrderedFlush, OutOfOrderCompletionFromManyThreads) {
  constexpr std::size_t kCells = 96;
  constexpr int kThreads = 8;
  constexpr std::size_t kRowsPerCell = 5;

  MemorySink memory;
  OrderedFlush flush({&memory}, kCells);
  flush.begin({"cell", "block", "row"});

  // Thread t completes the cells congruent to t mod kThreads, walking
  // them in DESCENDING order, so the flush's "maximal ready prefix"
  // logic sees late low cells unblocking long tails of high ones.
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      started.fetch_add(1, std::memory_order_acq_rel);
      while (started.load(std::memory_order_acquire) < kThreads) {
        std::this_thread::yield();
      }
      for (std::size_t cell = kCells - 1 - static_cast<std::size_t>(t);;
           cell -= kThreads) {
        flush.cell_done(cell, block_for(cell, 0, kRowsPerCell));
        // The counters must be safely readable mid-storm.
        ASSERT_LE(flush.flushed_cells(), kCells);
        if (cell < kThreads) {
          break;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  flush.finish();

  EXPECT_EQ(flush.flushed_cells(), kCells);
  EXPECT_EQ(flush.flushed_rows(),
            static_cast<std::int64_t>(kCells) * kRowsPerCell);

  // The sink observed every row in strict (cell, row) order even though
  // completion order was adversarial.
  ASSERT_EQ(memory.rows().size(), kCells * kRowsPerCell);
  for (std::size_t cell = 0; cell < kCells; ++cell) {
    for (std::size_t r = 0; r < kRowsPerCell; ++r) {
      const auto& row = memory.rows()[cell * kRowsPerCell + r];
      EXPECT_EQ(row[0], std::to_string(cell));
      EXPECT_EQ(row[2], std::to_string(r));
    }
  }
}

TEST(StressOrderedFlush, EmptyAndFullCellsInterleaveAcrossThreads) {
  // Odd cells stream rows, even cells complete empty -- the common
  // aggregate-only sweep shape, completed from racing threads.
  constexpr std::size_t kCells = 64;
  constexpr int kThreads = 4;
  MemorySink memory;
  OrderedFlush flush({&memory}, kCells);
  flush.begin({"cell", "block", "row"});

  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        const std::size_t cell = next.fetch_add(1, std::memory_order_relaxed);
        if (cell >= kCells) {
          return;
        }
        flush.cell_done(cell, block_for(cell, 0, cell % 2));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  flush.finish();

  ASSERT_EQ(memory.rows().size(), kCells / 2);
  for (std::size_t i = 0; i < memory.rows().size(); ++i) {
    EXPECT_EQ(memory.rows()[i][0], std::to_string(2 * i + 1));
  }
}

// The engine's streamed shape: every replica of every cell delivers its
// block from a pool thread in random order while the "fold" thread
// closes each cell once its replicas are in.  The sink must see strict
// (cell, replica) order, one writer at a time.
TEST(StressOrderedFlush, ReplicaBlocksFromManyThreadsReleaseInOrder) {
  constexpr std::size_t kCells = 12;
  constexpr std::size_t kReplicas = 16;
  constexpr int kThreads = 8;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SerialCheckingSink sink;
    RowTable retained;
    OrderedFlush flush({&sink}, kCells, &retained);
    flush.begin({"cell", "block", "row"});
    const auto pairs = shuffled_pairs(kCells, kReplicas, seed);
    std::vector<std::atomic<std::size_t>> delivered(kCells);

    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= pairs.size()) {
            return;
          }
          const auto [cell, replica] = pairs[i];
          flush.deliver(cell, replica, block_for(cell, replica, 2));
          delivered[cell].fetch_add(1, std::memory_order_release);
        }
      });
    }
    for (std::size_t cell = 0; cell < kCells; ++cell) {
      while (delivered[cell].load(std::memory_order_acquire) < kReplicas) {
        std::this_thread::yield();
      }
      flush.close(cell);
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    flush.finish();

    ASSERT_EQ(sink.seen().size(), kCells * kReplicas * 2) << seed;
    for (std::size_t i = 0; i < sink.seen().size(); ++i) {
      const std::size_t block = i / 2;
      EXPECT_EQ(sink.seen()[i],
                std::make_pair(block / kReplicas, block % kReplicas))
          << "seed " << seed << " row " << i;
    }
    EXPECT_EQ(retained.size(), kCells * kReplicas * 2);
    EXPECT_EQ(flush.flushed_cells(), kCells);
  }
}

// An interrupted batch: cells before the cancel closed normally, the
// first unfinished cell has completed replicas on both sides of a
// missing one, and a later cell finished entirely.  finish_partial must
// close the sinks over exactly the released prefix: the closed cells
// and the unfinished cell's replicas before its first gap -- never a
// replica after the gap, never a later cell.
TEST(StressOrderedFlush, FinishPartialFlushesExactlyTheCompletedPrefix) {
  constexpr std::size_t kCells = 6;
  constexpr std::size_t kReplicas = 12;
  constexpr int kThreads = 6;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const std::size_t cut_cell = 1 + rng.next_below(kCells - 2);
    const std::size_t gap = rng.next_below(kReplicas);
    // Everything except the gap replica; cells after cut_cell deliver
    // fully but are never reachable, since cut_cell never closes.
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (const auto& pair : shuffled_pairs(kCells, kReplicas, seed)) {
      if (pair != std::make_pair(cut_cell, gap)) {
        pairs.push_back(pair);
      }
    }
    SerialCheckingSink sink;
    OrderedFlush flush({&sink}, kCells);
    flush.begin({"cell", "block", "row"});
    std::vector<std::atomic<std::size_t>> delivered(kCells);

    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= pairs.size()) {
            return;
          }
          const auto [cell, replica] = pairs[i];
          flush.deliver(cell, replica, block_for(cell, replica, 1));
          delivered[cell].fetch_add(1, std::memory_order_release);
        }
      });
    }
    for (std::size_t cell = 0; cell < cut_cell; ++cell) {
      while (delivered[cell].load(std::memory_order_acquire) < kReplicas) {
        std::this_thread::yield();
      }
      flush.close(cell);
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    flush.finish_partial();

    ASSERT_TRUE(sink.finished());
    std::vector<std::pair<std::size_t, std::size_t>> expected;
    for (std::size_t cell = 0; cell < cut_cell; ++cell) {
      for (std::size_t r = 0; r < kReplicas; ++r) {
        expected.emplace_back(cell, r);
      }
    }
    for (std::size_t r = 0; r < gap; ++r) {
      expected.emplace_back(cut_cell, r);
    }
    EXPECT_EQ(sink.seen(), expected)
        << "seed " << seed << ": cut at cell " << cut_cell << " replica "
        << gap;
    EXPECT_EQ(flush.flushed_cells(), cut_cell);
    EXPECT_EQ(flush.flushed_rows(),
              static_cast<std::int64_t>(expected.size()));
  }
}

}  // namespace
}  // namespace engine
}  // namespace opindyn
