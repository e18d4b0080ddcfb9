#include "src/support/row_block.h"

#include <utility>

#include "src/support/assert.h"
#include "src/support/csv.h"

namespace opindyn {

void RowEmitter::close_row() {
  OPINDYN_EXPECTS(width_ == 0 || cells_ == width_,
                  "scenario emitted a per-replica row of the wrong width");
  block_.bytes += '\n';
  ++block_.rows;
  open_ = false;
}

RowEmitter& RowEmitter::row() {
  if (open_) {
    close_row();
  }
  block_.bytes.append(prefix_);
  open_ = true;
  cells_ = 0;
  return *this;
}

std::string& RowEmitter::next_cell() {
  OPINDYN_EXPECTS(open_, "RowEmitter: cell before row()");
  if (cells_ > 0) {
    block_.bytes += ',';
  }
  ++cells_;
  return block_.bytes;
}

RowEmitter& RowEmitter::text(std::string_view cell) {
  append_csv_field(next_cell(), cell);
  return *this;
}

RowEmitter& RowEmitter::integer(std::int64_t value) {
  append_integer(next_cell(), value);
  return *this;
}

RowEmitter& RowEmitter::general(double value, int significant) {
  append_general(next_cell(), value, significant);
  return *this;
}

RowEmitter& RowEmitter::fixed(double value, int digits) {
  append_fixed(next_cell(), value, digits);
  return *this;
}

RowEmitter& RowEmitter::sci(double value, int digits) {
  append_sci(next_cell(), value, digits);
  return *this;
}

RowBlock RowEmitter::take() {
  if (open_) {
    close_row();
  }
  return std::exchange(block_, RowBlock{});
}

}  // namespace opindyn
