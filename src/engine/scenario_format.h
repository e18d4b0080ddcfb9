// Number-to-cell formatting shared by the scenario translation units.
// Scenarios own the formatting of their result cells (sinks render the
// strings verbatim), so every scenario file uses these helpers to keep
// table and CSV output consistent.  They return the same bytes as the
// RowEmitter's general/fixed/sci cells (both go through
// support/format.h).
#ifndef OPINDYN_ENGINE_SCENARIO_FORMAT_H
#define OPINDYN_ENGINE_SCENARIO_FORMAT_H

#include <string>

#include "src/support/format.h"

namespace opindyn {
namespace engine {

/// Default float formatting: `significant` significant digits.
inline std::string fmt(double value, int significant = 6) {
  std::string out;
  append_general(out, value, significant);
  return out;
}

/// Fixed-point with `digits` decimals (column-aligned metrics).
inline std::string fmt_fixed(double value, int digits) {
  std::string out;
  append_fixed(out, value, digits);
  return out;
}

/// Scientific with `digits` decimals (variances, residuals).
inline std::string fmt_sci(double value, int digits) {
  std::string out;
  append_sci(out, value, digits);
  return out;
}

}  // namespace engine
}  // namespace opindyn

#endif  // OPINDYN_ENGINE_SCENARIO_FORMAT_H
