#include "src/engine/sinks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "src/support/assert.h"
#include "src/support/cli.h"

namespace opindyn {
namespace engine {

void RowSink::block(const RowBlock& rows) {
  std::vector<std::string> cells;
  for (std::size_t at = 0; at < rows.bytes.size();) {
    at = parse_csv_row(rows.bytes, at, cells);
    row(cells);
  }
}

TableSink::TableSink(std::ostream& out) : out_(&out) {}

void TableSink::begin(const std::vector<std::string>& columns) {
  table_ = std::make_unique<Table>(columns);
}

void TableSink::row(const std::vector<std::string>& cells) {
  OPINDYN_EXPECTS(table_ != nullptr, "TableSink::begin was not called");
  table_->new_row();
  for (const std::string& cell : cells) {
    table_->add(cell);
  }
}

void TableSink::finish() {
  OPINDYN_EXPECTS(table_ != nullptr, "TableSink::begin was not called");
  *out_ << table_->to_markdown();
  table_.reset();
}

CsvSink::CsvSink(std::string path)
    : path_(std::move(path)),
      writer_(std::make_unique<CsvWriter>(path_)) {}

void CsvSink::begin(const std::vector<std::string>& columns) {
  OPINDYN_EXPECTS(writer_ != nullptr, "CsvSink already finished");
  writer_->write_header(columns);
}

void CsvSink::row(const std::vector<std::string>& cells) {
  OPINDYN_EXPECTS(writer_ != nullptr, "CsvSink already finished");
  writer_->write_row(cells);
}

void CsvSink::block(const RowBlock& rows) {
  OPINDYN_EXPECTS(writer_ != nullptr, "CsvSink already finished");
  writer_->write_rows(rows.bytes);
}

void CsvSink::finish() {
  OPINDYN_EXPECTS(writer_ != nullptr, "CsvSink already finished");
  writer_->close();
  writer_.reset();
}

HistogramSink::HistogramSink(Options options)
    : options_(std::move(options)) {
  // Probe the bin CSV up front (no truncation): an unwritable
  // --hist-csv path fails here, with the path in the message, before
  // the batch runs -- while a runtime failure mid-batch still leaves a
  // pre-existing file's bins from the previous run intact, because the
  // file is only (re)written inside finish().
  if (!options_.csv_path.empty()) {
    probe_csv_writable(options_.csv_path);
  }
}

void HistogramSink::begin(const std::vector<std::string>& columns) {
  OPINDYN_EXPECTS(!columns.empty(), "histogram sink needs columns");
  values_.clear();
  histogram_.reset();
  quantile_values_.clear();
  if (options_.column.empty()) {
    column_index_ = columns.size() - 1;
  } else {
    const auto it =
        std::find(columns.begin(), columns.end(), options_.column);
    if (it == columns.end()) {
      std::string known;
      for (const std::string& column : columns) {
        known += known.empty() ? column : ", " + column;
      }
      throw std::runtime_error("histogram column '" + options_.column +
                               "' is not a streamed column (available: " +
                               known + ")");
    }
    column_index_ = static_cast<std::size_t>(it - columns.begin());
  }
  column_name_ = columns[column_index_];
}

void HistogramSink::row(const std::vector<std::string>& cells) {
  OPINDYN_EXPECTS(column_index_ < cells.size(),
                  "HistogramSink::begin was not called");
  const std::string& cell = cells[column_index_];
  double value = 0.0;
  try {
    value = parse_double_value(
        "histogram column '" + column_name_ + "'", cell);
  } catch (const std::runtime_error&) {
    throw std::runtime_error("histogram column '" + column_name_ +
                             "': non-numeric cell '" + cell +
                             "' (pick a numeric streamed column)");
  }
  // A non-finite sample has no position on the binning axis; rejecting
  // it loudly beats Histogram::add's saturation fallback here, because
  // a NaN in a streamed metric always indicates an upstream bug.
  if (!std::isfinite(value)) {
    throw std::runtime_error("histogram column '" + column_name_ +
                             "': non-finite cell '" + cell +
                             "' cannot be binned");
  }
  values_.push_back(value);
}

void HistogramSink::finish() {
  if (!values_.empty()) {
    // The range is the exact data range (hi nudged up so the maximum
    // lands in the last bin, not in the saturating overflow cell); it
    // depends only on the streamed values, never on thread scheduling.
    const auto [min_it, max_it] =
        std::minmax_element(values_.begin(), values_.end());
    const double lo = *min_it;
    double hi = std::nextafter(
        *max_it, std::numeric_limits<double>::infinity());
    if (hi <= lo) {
      hi = lo + 1.0;  // all values identical: one degenerate bin width
    }
    histogram_ = std::make_unique<Histogram>(lo, hi, options_.bins);
    for (const double value : values_) {
      histogram_->add(value);
    }

    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    quantile_values_.reserve(options_.quantiles.size());
    for (const double q : options_.quantiles) {
      const auto rank = std::min(
          sorted.size() - 1,
          static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
      quantile_values_.push_back(sorted[rank]);
    }
  }

  if (!options_.csv_path.empty()) {
    CsvWriter writer(options_.csv_path, {"bin_lo", "bin_hi", "count"});
    if (histogram_ != nullptr) {
      for (std::size_t b = 0; b < histogram_->bins(); ++b) {
        writer.write_row(std::vector<double>{
            histogram_->bin_low(b), histogram_->bin_high(b),
            static_cast<double>(histogram_->count(b))});
      }
    }
    writer.close();
  }

  if (options_.summary_out != nullptr) {
    std::ostream& out = *options_.summary_out;
    std::ostringstream summary;
    summary.precision(6);
    summary << "hist(" << column_name_ << "): " << values_.size()
            << " values";
    if (histogram_ != nullptr) {
      summary << " in [" << histogram_->bin_low(0) << ", "
              << histogram_->bin_high(histogram_->bins() - 1) << ")";
    }
    for (std::size_t i = 0; i < quantile_values_.size(); ++i) {
      summary << (i == 0 ? "; " : " ") << "q" << options_.quantiles[i]
              << "=" << quantile_values_[i];
    }
    out << summary.str() << "\n";
    if (!options_.csv_path.empty() && histogram_ != nullptr) {
      out << "wrote " << histogram_->bins() << " histogram bins to "
          << options_.csv_path << "\n";
    }
  }
}

void MemorySink::begin(const std::vector<std::string>& columns) {
  columns_ = columns;
  rows_.clear();
}

void MemorySink::row(const std::vector<std::string>& cells) {
  rows_.push_back(cells);
}

RowTable::const_iterator::const_iterator(const std::vector<RowBlock>* blocks,
                                        std::size_t block)
    : blocks_(blocks), block_(block) {
  load();
}

void RowTable::const_iterator::load() {
  while (block_ < blocks_->size() &&
         at_ >= (*blocks_)[block_].bytes.size()) {
    ++block_;
    at_ = 0;
  }
  if (block_ < blocks_->size()) {
    next_ = parse_csv_row((*blocks_)[block_].bytes, at_, row_);
  }
}

RowTable::const_iterator& RowTable::const_iterator::operator++() {
  at_ = next_;
  load();
  return *this;
}

void RowTable::append(RowBlock block) {
  rows_ += static_cast<std::size_t>(block.rows);
  exact_cells_ += block.exact_cells;
  blocks_.push_back(std::move(block));
}

OrderedFlush::OrderedFlush(std::vector<RowSink*> sinks,
                           std::size_t cell_count, RowTable* retain)
    : sinks_(std::move(sinks)), retain_(retain), cells_(cell_count) {}

void OrderedFlush::begin(const std::vector<std::string>& columns) {
  for (RowSink* sink : sinks_) {
    sink->begin(columns);
  }
}

OrderedFlush::CellSlot& OrderedFlush::open_slot(std::size_t cell) {
  OPINDYN_EXPECTS(cell < cells_.size(), "cell index out of range");
  CellSlot& slot = cells_[cell];
  OPINDYN_EXPECTS(!slot.closed, "cell already closed");
  return slot;
}

void OrderedFlush::store(std::size_t cell, std::size_t index,
                         RowBlock block) {
  CellSlot& slot = open_slot(cell);
  const bool released = cell == next_cell_ && index < next_block_;
  OPINDYN_EXPECTS(!released && (index >= slot.blocks.size() ||
                                !slot.blocks[index].has_value()),
                  "block delivered twice");
  if (index >= slot.blocks.size()) {
    slot.blocks.resize(index + 1);
  }
  slot.blocks[index] = std::move(block);
  ++slot.delivered;
}

void OrderedFlush::seal(std::size_t cell) {
  CellSlot& slot = open_slot(cell);
  OPINDYN_EXPECTS(slot.delivered == slot.blocks.size(),
                  "cell closed with a block missing");
  slot.closed = true;
}

void OrderedFlush::deliver(std::size_t cell, std::size_t index,
                           RowBlock block) {
  std::unique_lock<std::mutex> lock(mutex_);
  store(cell, index, std::move(block));
  release(lock);
}

void OrderedFlush::close(std::size_t cell) {
  std::unique_lock<std::mutex> lock(mutex_);
  seal(cell);
  release(lock);
}

void OrderedFlush::cell_done(std::size_t cell, RowBlock block) {
  std::unique_lock<std::mutex> lock(mutex_);
  store(cell, open_slot(cell).blocks.size(), std::move(block));
  seal(cell);
  release(lock);
}

void OrderedFlush::release(std::unique_lock<std::mutex>& lock) {
  if (writing_ || failed_) {
    return;  // the active writer picks up what just became ready
  }
  writing_ = true;
  std::vector<RowBlock> ready;
  for (;;) {
    while (next_cell_ < cells_.size()) {
      CellSlot& slot = cells_[next_cell_];
      if (next_block_ < slot.blocks.size() &&
          slot.blocks[next_block_].has_value()) {
        rows_flushed_ += slot.blocks[next_block_]->rows;
        ready.push_back(std::move(*slot.blocks[next_block_]));
        slot.blocks[next_block_].reset();
        ++next_block_;
      } else if (slot.closed && next_block_ == slot.blocks.size()) {
        slot.blocks = {};
        ++next_cell_;
        next_block_ = 0;
      } else {
        break;
      }
    }
    if (ready.empty()) {
      break;
    }
    // Write outside the lock: other threads keep delivering (and
    // return at once, since writing_ is set) while this one does I/O.
    lock.unlock();
    try {
      for (RowBlock& block : ready) {
        for (RowSink* sink : sinks_) {
          sink->block(block);
        }
        if (retain_ != nullptr) {
          retain_->append(std::move(block));
        }
      }
    } catch (...) {
      lock.lock();
      failed_ = true;
      writing_ = false;
      idle_.notify_all();
      throw;
    }
    ready.clear();
    lock.lock();
  }
  writing_ = false;
  idle_.notify_all();
}

void OrderedFlush::wait_idle(std::unique_lock<std::mutex>& lock) {
  idle_.wait(lock, [this] { return !writing_; });
}

std::size_t OrderedFlush::flushed_cells() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_cell_;
}

std::int64_t OrderedFlush::flushed_rows() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return rows_flushed_;
}

void OrderedFlush::finish() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    wait_idle(lock);
    OPINDYN_EXPECTS(next_cell_ == cells_.size(),
                    "finish() before every cell was delivered");
  }
  for (RowSink* sink : sinks_) {
    sink->finish();
  }
}

void OrderedFlush::finish_partial() {
  // No completeness check: the interrupted prefix is exactly what was
  // already released in order, and the sinks finish over it.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    wait_idle(lock);
  }
  for (RowSink* sink : sinks_) {
    sink->finish();
  }
}

}  // namespace engine
}  // namespace opindyn
