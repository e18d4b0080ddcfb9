// The row channel's one representation: rows formatted once, as CSV
// bytes, into a per-replica block.
//
// A RowEmitter appends rows to a RowBlock.  Every row starts with the
// emitter's prefix -- the cells the engine puts in front of every row of
// a cell (scenario, graph, n, replicas, sweep labels), rendered once per
// cell -- followed by the cells the scenario appends, each formatted
// straight into the block (support/format.h) and separated by commas.
// CsvSink writes a block with one buffered write; other sinks parse the
// rows back (parse_csv_row), which is exact.
#ifndef OPINDYN_SUPPORT_ROW_BLOCK_H
#define OPINDYN_SUPPORT_ROW_BLOCK_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "src/support/format.h"

namespace opindyn {

/// Whole CSV rows, each ending in '\n', and how many there are.
struct RowBlock {
  std::string bytes;
  std::int64_t rows = 0;
  /// Certified cells (RowEmitter::sci_certified) that needed the exact
  /// value: a deterministic work count, not part of the bytes.
  std::int64_t exact_cells = 0;
};

/// Appends rows to one RowBlock:
///
///   rows.row().integer(t).general(m).sci(phi, 4);
///
/// row() closes the previous row and starts a new one after the prefix.
/// Cell appenders return *this so a row reads as one chain.
class RowEmitter {
 public:
  /// `prefix` holds whole encoded cells, each followed by ',' (empty =
  /// none) and must outlive the emitter; `width` > 0 is the number of
  /// cells every row must carry after the prefix (checked on close).
  explicit RowEmitter(std::string_view prefix = {}, std::size_t width = 0)
      : prefix_(prefix), width_(width) {}

  RowEmitter& row();
  /// A text cell, quoted as the CSV rules require.
  RowEmitter& text(std::string_view cell);
  RowEmitter& integer(std::int64_t value);
  /// The appenders of support/format.h, one cell each.
  RowEmitter& general(double value, int significant = 6);
  RowEmitter& fixed(double value, int digits);
  RowEmitter& sci(double value, int digits);
  /// The sci() cell of a value known only to lie in [lo, hi], computed
  /// by `exact()` only when the interval's ends print differently
  /// (append_sci_interval); the bytes are always sci(exact(), digits).
  template <class Exact>
  RowEmitter& sci_certified(double lo, double hi, int digits, Exact&& exact) {
    std::string& out = next_cell();
    if (!append_sci_interval(out, lo, hi, digits)) {
      append_sci(out, exact(), digits);
      ++block_.exact_cells;
    }
    return *this;
  }

  /// Closes the open row and hands the block over; the emitter starts
  /// an empty block afterwards.
  RowBlock take();

 private:
  /// Starts a cell: a ',' unless it is the first one after the prefix.
  std::string& next_cell();
  void close_row();

  std::string_view prefix_;
  std::size_t width_;
  RowBlock block_;
  bool open_ = false;
  std::size_t cells_ = 0;  // cells of the open row after the prefix
};

/// Where a batch's per-replica rows go (the optional last argument of
/// CellScheduler::submit_groups).  Each replica emits into its own
/// RowEmitter over `prefix` / `width`; when its unit's body returns,
/// each replica's block goes to `deliver`, in replica order, on the
/// thread that ran the unit -- so rows leave as units finish, not when
/// the whole batch has.  A unit whose body threw or that a cancellation
/// skipped delivers nothing.
struct RowStream {
  std::string prefix;
  std::size_t width = 0;
  std::function<void(std::int64_t replica, RowBlock block)> deliver;

  /// An emitter for rows built outside a unit (a scenario's fold).
  RowEmitter emitter() const { return RowEmitter(prefix, width); }
};

}  // namespace opindyn

#endif  // OPINDYN_SUPPORT_ROW_BLOCK_H
