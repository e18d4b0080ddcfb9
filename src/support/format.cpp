#include "src/support/format.h"

#include <array>
#include <charconv>
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

void append_integer(std::string& out, std::int64_t value) {
  std::array<char, 24> digits;
  const auto result =
      std::to_chars(digits.data(), digits.data() + digits.size(), value);
  out.append(digits.data(), result.ptr);
}

}  // namespace opindyn
