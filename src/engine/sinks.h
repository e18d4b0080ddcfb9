// Row sinks: where the batch runner streams its result rows (aggregate
// and per-replica channels use the same interface).  Rows arrive as
// RowBlocks -- whole rows already formatted as CSV bytes (the scenario
// controls number formatting) -- so every sink renders the identical
// content; the determinism test compares CSV bytes across thread
// counts.  OrderedFlush is the ordering layer in front of the sinks:
// blocks may complete in any order and on any thread, but a sink only
// ever observes them in (cell, block) order, one call at a time.
#ifndef OPINDYN_ENGINE_SINKS_H
#define OPINDYN_ENGINE_SINKS_H

#include <condition_variable>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/support/csv.h"
#include "src/support/histogram.h"
#include "src/support/row_block.h"
#include "src/support/table.h"

namespace opindyn {
namespace engine {

class RowSink {
 public:
  virtual ~RowSink() = default;

  /// Called once before the first row.
  virtual void begin(const std::vector<std::string>& columns) = 0;
  /// Called once per result row; cells align with `columns`.
  virtual void row(const std::vector<std::string>& cells) = 0;
  /// Called with a block of whole rows in channel order.  The default
  /// parses each row back into its cells and forwards it to row().
  virtual void block(const RowBlock& rows);
  /// Called once after the last row.
  virtual void finish() = 0;
};

/// Renders an aligned markdown table to `out` on finish().
class TableSink : public RowSink {
 public:
  explicit TableSink(std::ostream& out);
  void begin(const std::vector<std::string>& columns) override;
  void row(const std::vector<std::string>& cells) override;
  void finish() override;

 private:
  std::ostream* out_;
  std::unique_ptr<Table> table_;
};

/// Streams rows to a CSV file as they arrive; a block is one buffered
/// write of its bytes, and row() encodes its cells onto the same path.
/// The file is opened at CONSTRUCTION: an unwritable path (missing
/// directory, no permission) throws a one-line error citing the path
/// before any replica work runs, instead of silently producing no
/// output.  finish() closes the writer with a stream-state check, so
/// late write failures (disk full) also surface as errors.
class CsvSink : public RowSink {
 public:
  explicit CsvSink(std::string path);
  void begin(const std::vector<std::string>& columns) override;
  void row(const std::vector<std::string>& cells) override;
  void block(const RowBlock& rows) override;
  void finish() override;

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::unique_ptr<CsvWriter> writer_;
};

/// Distribution summarizer over ONE numeric column of a row channel --
/// the engine's histogram/quantile sink, meant for the streamed
/// per-replica channel (`--hist-csv` / `--quantiles`).  Values are
/// buffered as rows arrive; finish() bins them into an equal-width
/// Histogram over the exact data range (so no sample saturates), writes
/// the bins as CSV if a path was given, and computes the requested
/// quantiles as exact order statistics of the buffered values (not bin
/// midpoints).  Because the OrderedFlush upstream releases rows in cell
/// order, the emitted bytes are identical for every thread count.
class HistogramSink : public RowSink {
 public:
  struct Options {
    /// Column to bin, matched by name against begin()'s columns; "" =
    /// the last column.  begin() throws if the name is absent.
    std::string column;
    std::size_t bins = 20;
    /// Quantiles in [0, 1] to summarize; empty = none.
    std::vector<double> quantiles;
    /// CSV output path for the bins ("" = no CSV).
    std::string csv_path;
    /// Stream for the human-readable summary (nullptr = silent).
    std::ostream* summary_out = nullptr;
  };

  /// Probes options.csv_path (when set) immediately, so an unwritable
  /// path fails here with a one-line error citing the path; the file
  /// itself is only (re)written in finish(), so a failed run preserves
  /// a pre-existing file's contents.
  explicit HistogramSink(Options options);

  void begin(const std::vector<std::string>& columns) override;
  /// Parses the selected cell as a double; throws std::runtime_error
  /// naming the column on non-numeric or non-finite content (a NaN
  /// sample has no place on the binning axis -- see Histogram::add).
  void row(const std::vector<std::string>& cells) override;
  void finish() override;

  /// Post-finish accessors (for tests and programmatic callers).
  const Histogram* histogram() const noexcept { return histogram_.get(); }
  /// Exact order-statistic quantiles, aligned with options.quantiles.
  const std::vector<double>& quantile_values() const noexcept {
    return quantile_values_;
  }
  std::size_t samples() const noexcept { return values_.size(); }

 private:
  Options options_;
  std::string column_name_;
  std::size_t column_index_ = 0;
  std::vector<double> values_;
  std::unique_ptr<Histogram> histogram_;
  std::vector<double> quantile_values_;
};

/// Collects rows in memory (used by tests and by callers that post-process
/// results).
class MemorySink : public RowSink {
 public:
  void begin(const std::vector<std::string>& columns) override;
  void row(const std::vector<std::string>& cells) override;
  void finish() override {}

  const std::vector<std::string>& columns() const noexcept {
    return columns_;
  }
  const std::vector<std::vector<std::string>>& rows() const noexcept {
    return rows_;
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// The per-replica rows a batch released, kept as the flushed blocks
/// themselves (moved in by the OrderedFlush, never copied) -- what
/// BatchResult::replica_rows holds.  Read-only for consumers: size(),
/// empty() and iteration, which parses one row at a time back into its
/// cells, exactly as a sink's default block() sees them.
class RowTable {
 public:
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = std::vector<std::string>;
    using difference_type = std::ptrdiff_t;
    using pointer = const value_type*;
    using reference = const value_type&;

    const_iterator() = default;
    reference operator*() const { return row_; }
    pointer operator->() const { return &row_; }
    const_iterator& operator++();
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const const_iterator& a,
                           const const_iterator& b) {
      return a.block_ == b.block_ && a.at_ == b.at_;
    }

   private:
    friend class RowTable;
    const_iterator(const std::vector<RowBlock>* blocks, std::size_t block);
    /// Parses the row at (block_, at_), skipping exhausted blocks.
    void load();

    const std::vector<RowBlock>* blocks_ = nullptr;
    std::size_t block_ = 0;
    std::size_t at_ = 0;    // offset of the current row in its block
    std::size_t next_ = 0;  // offset just past it
    std::vector<std::string> row_;
  };

  std::size_t size() const noexcept { return rows_; }
  bool empty() const noexcept { return rows_ == 0; }
  /// Sum of the blocks' RowBlock::exact_cells.
  std::int64_t exact_cells() const noexcept { return exact_cells_; }
  const_iterator begin() const { return const_iterator(&blocks_, 0); }
  const_iterator end() const {
    return const_iterator(&blocks_, blocks_.size());
  }

  /// Takes ownership of a flushed block (the OrderedFlush's job).
  void append(RowBlock block);

 private:
  std::vector<RowBlock> blocks_;
  std::size_t rows_ = 0;
  std::int64_t exact_cells_ = 0;
};

/// Releases row blocks to a set of sinks in strict (cell, block) order,
/// no matter in which order, or on which threads, the blocks arrive.
/// A cell's blocks are numbered 0, 1, ...; block i of cell c reaches
/// the sinks as soon as it and every earlier (cell, block) have, and
/// every earlier cell has been closed -- so a replica's rows can leave
/// while the rest of its cell still runs.  One delivering thread at a
/// time writes, without holding the lock: a block that lands while
/// another thread writes is picked up by that writer, so deliverers
/// never wait on each other's I/O and the sinks need no locking of
/// their own.  The emitted byte stream depends only on the (cell,
/// block) order, never on completion order -- the engine's CSV
/// determinism rests on this class plus the CellScheduler's
/// replica-order fold.
class OrderedFlush {
 public:
  /// `sinks` may be empty (blocks are then only counted and dropped);
  /// with `retain`, every released block is moved into it after the
  /// sinks have seen it.
  OrderedFlush(std::vector<RowSink*> sinks, std::size_t cell_count,
               RowTable* retain = nullptr);

  /// Forwards begin(columns) to every sink.
  void begin(const std::vector<std::string>& columns);

  /// Delivers block `index` of cell `cell` (possibly empty); any thread,
  /// once per (cell, index).  May release it and any blocks it unblocks.
  void deliver(std::size_t cell, std::size_t index, RowBlock block);

  /// Declares that cell `cell` has exactly the blocks delivered so far
  /// (indices 0..k-1, no gaps); later cells' blocks may then follow.
  void close(std::size_t cell);

  /// deliver(cell, <next index>, block) + close(cell): a cell whose rows
  /// come as one block (the aggregate channel, a fold's rows).
  void cell_done(std::size_t cell, RowBlock block);

  /// Cells fully flushed so far (== cell_count once every cell closed).
  std::size_t flushed_cells() const;
  /// Rows forwarded to the sinks so far.
  std::int64_t flushed_rows() const;

  /// Forwards finish() to every sink.  Fails if a cell never closed.
  void finish();

  /// Forwards finish() to every sink even though blocks are missing --
  /// the interrupted-batch path (SIGINT, deadline).  Only the in-order
  /// prefix of released blocks reached the sinks: whole cells, plus
  /// the leading blocks of the first unfinished cell whose replicas
  /// completed before the gap -- never a block after a missing one.
  void finish_partial();

 private:
  struct CellSlot {
    std::vector<std::optional<RowBlock>> blocks;
    std::size_t delivered = 0;
    bool closed = false;
  };

  /// The slot of a not yet closed cell (range- and state-checked).
  CellSlot& open_slot(std::size_t cell);
  /// Stores block `index` of `cell`; holds mutex_.
  void store(std::size_t cell, std::size_t index, RowBlock block);
  /// Closes `cell` over the blocks stored so far; holds mutex_.
  void seal(std::size_t cell);
  /// Writes every releasable block unless another thread already is;
  /// `lock` holds mutex_ on entry and on return.
  void release(std::unique_lock<std::mutex>& lock);
  /// Waits until no thread is writing.
  void wait_idle(std::unique_lock<std::mutex>& lock);

  std::vector<RowSink*> sinks_;
  RowTable* retain_;
  mutable std::mutex mutex_;
  std::condition_variable idle_;
  std::vector<CellSlot> cells_;
  std::size_t next_cell_ = 0;   // first cell not fully released
  std::size_t next_block_ = 0;  // its first unreleased block
  bool writing_ = false;
  bool failed_ = false;  // a sink threw: release nothing more
  std::int64_t rows_flushed_ = 0;
};

}  // namespace engine
}  // namespace opindyn

#endif  // OPINDYN_ENGINE_SINKS_H
