// Number-to-text formatting straight into a byte buffer.  Each appender
// writes exactly the bytes an std::ostream with the matching floatfield
// and precision would (printf's %.*g / %.*f / %.*e in the "C" locale,
// including "nan", "-nan", "inf" and "-inf"), but through std::to_chars:
// no stream, no locale lookup and no temporary string per number.  The
// row channel formats every cell with these, and the stream-based
// originals survive only as the oracle in tests/support/test_format.cpp.
#ifndef OPINDYN_SUPPORT_FORMAT_H
#define OPINDYN_SUPPORT_FORMAT_H

#include <cstdint>
#include <string>

namespace opindyn {

/// `significant` significant digits: `out << setprecision(p) << value`.
void append_general(std::string& out, double value, int significant);
/// `digits` decimals: `out << fixed << setprecision(p) << value`.
void append_fixed(std::string& out, double value, int digits);
/// `digits` decimals: `out << scientific << setprecision(p) << value`.
void append_sci(std::string& out, double value, int digits);
/// The bytes append_sci(out, x, digits) writes for every x in the
/// closed interval [lo, hi], or nothing and false when they may differ.
/// Scientific to_chars is correctly rounded, hence monotone: when hi
/// and lo print the same bytes, every value between them does.  A width
/// above one printed digit and an interval holding zero (whose sign
/// shows) fail before any formatting.  No heap allocation beyond `out`.
bool append_sci_interval(std::string& out, double lo, double hi,
                         int digits);
/// Decimal integer: the bytes of std::to_string(value).
void append_integer(std::string& out, std::int64_t value);

}  // namespace opindyn

#endif  // OPINDYN_SUPPORT_FORMAT_H
