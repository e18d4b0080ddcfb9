#include "src/support/format.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <iterator>
#include <string_view>
#include <system_error>

#include "src/support/assert.h"

namespace opindyn {

namespace {

void append_chars(std::string& out, double value, std::chars_format format,
                  int precision) {
  OPINDYN_EXPECTS(precision >= 0, "negative formatting precision");
  // Every general/scientific result and every fixed one below 1e60 fits
  // the stack buffer; only huge fixed-point values (up to 309 integer
  // digits plus the decimals) take the heap path.
  std::array<char, 96> small;
  const std::to_chars_result fits = std::to_chars(
      small.data(), small.data() + small.size(), value, format, precision);
  if (fits.ec == std::errc{}) {
    out.append(small.data(), fits.ptr);
    return;
  }
  std::string large(static_cast<std::size_t>(precision) + 330, '\0');
  const std::to_chars_result wide = std::to_chars(
      large.data(), large.data() + large.size(), value, format, precision);
  OPINDYN_ENSURES(wide.ec == std::errc{}, "to_chars buffer too small");
  out.append(large.data(), wide.ptr);
}

}  // namespace

void append_general(std::string& out, double value, int significant) {
  append_chars(out, value, std::chars_format::general, significant);
}

void append_fixed(std::string& out, double value, int digits) {
  append_chars(out, value, std::chars_format::fixed, digits);
}

void append_sci(std::string& out, double value, int digits) {
  append_chars(out, value, std::chars_format::scientific, digits);
}

bool append_sci_interval(std::string& out, double lo, double hi,
                         int digits) {
  // 10^-d bounds the relative spacing of the values `digits` decimals
  // print, so a wider interval holds a rounding midpoint and its ends
  // print differently.  Past the table the check is only stricter.
  static constexpr double kSpacing[] = {
      1e0,  1e-1,  1e-2,  1e-3,  1e-4,  1e-5,  1e-6,  1e-7,  1e-8,  1e-9,
      1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15, 1e-16, 1e-17};
  constexpr int kLast = static_cast<int>(std::size(kSpacing)) - 1;
  OPINDYN_EXPECTS(digits >= 0, "negative formatting precision");
  // NaN fails every comparison, so it falls through to `false` too.
  if (!(lo > 0.0 || hi < 0.0) ||
      !(hi - lo <= std::abs(hi) * kSpacing[std::min(digits, kLast)])) {
    return false;
  }
  const std::size_t mark = out.size();
  append_sci(out, hi, digits);
  std::array<char, 64> low;
  const std::to_chars_result fits =
      std::to_chars(low.data(), low.data() + low.size(), lo,
                    std::chars_format::scientific, digits);
  if (fits.ec == std::errc{} &&
      std::string_view(out).substr(mark) ==
          std::string_view(low.data(),
                           static_cast<std::size_t>(fits.ptr - low.data()))) {
    return true;
  }
  out.resize(mark);
  return false;
}

void append_integer(std::string& out, std::int64_t value) {
  std::array<char, 24> digits;
  const auto result =
      std::to_chars(digits.data(), digits.data() + digits.size(), value);
  out.append(digits.data(), result.ptr);
}

}  // namespace opindyn
