// The to_chars appenders of support/format.h against the stream-based
// formatting they replaced, kept here verbatim as the oracle: the
// scenario cell helpers fmt / fmt_fixed / fmt_sci and the precision-12
// CsvWriter::write_row(std::vector<double>).  Every byte of every CSV
// rests on the two agreeing, so the comparison covers the special
// values at every precision and a million seeded random bit patterns
// at the precisions the scenarios use.  The certified cell
// (RowEmitter::sci_certified) must print exactly append_sci(exact) for
// every exact value inside its interval, and skip exact() only when the
// interval's ends print alike.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/engine/scenario_format.h"
#include "src/support/csv.h"
#include "src/support/format.h"
#include "src/support/rng.h"
#include "src/support/row_block.h"

namespace opindyn {
namespace {

// ---- the oracle: the ostringstream formatting, as it was -------------

std::string oracle_fmt(double value, int significant = 6) {
  std::ostringstream out;
  out.precision(significant);
  out << value;
  return out.str();
}

std::string oracle_fmt_fixed(double value, int digits) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(digits);
  out << value;
  return out.str();
}

std::string oracle_fmt_sci(double value, int digits) {
  std::ostringstream out;
  out.setf(std::ios::scientific);
  out.precision(digits);
  out << value;
  return out.str();
}

/// The cells of the old CsvWriter::write_row(const std::vector<double>&).
std::vector<std::string> oracle_csv_cells(const std::vector<double>& values) {
  std::vector<std::string> as_text;
  as_text.reserve(values.size());
  for (const double v : values) {
    std::ostringstream s;
    s.precision(12);
    s << v;
    as_text.push_back(s.str());
  }
  return as_text;
}

// ---- helpers ----------------------------------------------------------

enum class Style { general, fixed, sci };

std::string oracle(Style style, double value, int precision) {
  switch (style) {
    case Style::general:
      return oracle_fmt(value, precision);
    case Style::fixed:
      return oracle_fmt_fixed(value, precision);
    case Style::sci:
      return oracle_fmt_sci(value, precision);
  }
  return {};
}

std::string appended(Style style, double value, int precision) {
  std::string out = "x";  // appenders must append, not overwrite
  switch (style) {
    case Style::general:
      append_general(out, value, precision);
      break;
    case Style::fixed:
      append_fixed(out, value, precision);
      break;
    case Style::sci:
      append_sci(out, value, precision);
      break;
  }
  return out.substr(1);
}

const char* name(Style style) {
  return style == Style::general ? "general"
         : style == Style::fixed ? "fixed"
                                 : "sci";
}

std::vector<double> special_values() {
  using limits = std::numeric_limits<double>;
  return {0.0,
          -0.0,
          limits::infinity(),
          -limits::infinity(),
          limits::quiet_NaN(),
          -limits::quiet_NaN(),
          limits::denorm_min(),
          -limits::denorm_min(),
          limits::min(),
          limits::max(),
          -limits::max(),
          limits::lowest(),
          limits::epsilon(),
          1.0,
          -1.0,
          0.5,
          0.05,
          0.15,
          2.5,
          9.9999995,
          999999.5,
          1e21,
          1e-7,
          123456789012345678.0,
          -2.77556e-17};
}

TEST(Format, SpecialValuesMatchTheStreamAtEveryPrecision) {
  for (const double value : special_values()) {
    for (int p = 0; p <= 17; ++p) {
      EXPECT_EQ(appended(Style::general, value, p),
                oracle(Style::general, value, p))
          << value << " p=" << p;
    }
    for (int p = 0; p <= 12; ++p) {
      EXPECT_EQ(appended(Style::fixed, value, p),
                oracle(Style::fixed, value, p))
          << value << " p=" << p;
      EXPECT_EQ(appended(Style::sci, value, p),
                oracle(Style::sci, value, p))
          << value << " p=" << p;
    }
  }
}

TEST(Format, NanAndInfinitySpellingsFollowTheStream) {
  // The sign of a NaN is printed, as printf and the stream do.
  EXPECT_EQ(engine::fmt(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(engine::fmt(-std::numeric_limits<double>::quiet_NaN()), "-nan");
  EXPECT_EQ(engine::fmt_sci(std::numeric_limits<double>::infinity(), 3),
            "inf");
  EXPECT_EQ(engine::fmt_fixed(-std::numeric_limits<double>::infinity(), 1),
            "-inf");
}

// The scenario helpers are thin wrappers; check them on the oracle's own
// terms with their default precision too.
TEST(Format, ScenarioHelpersMatchTheOracle) {
  for (const double value : special_values()) {
    EXPECT_EQ(engine::fmt(value), oracle_fmt(value));
    EXPECT_EQ(engine::fmt(value, 3), oracle_fmt(value, 3));
    EXPECT_EQ(engine::fmt_fixed(value, 4), oracle_fmt_fixed(value, 4));
    EXPECT_EQ(engine::fmt_sci(value, 2), oracle_fmt_sci(value, 2));
  }
}

// A million seeded random bit patterns -- every exponent, subnormals,
// NaN payloads -- each checked in one of the (style, precision) pairs
// the scenarios and the CSV writer use, rotating through all of them.
TEST(Format, RandomBitPatternsMatchTheStream) {
  struct Case {
    Style style;
    int precision;
  };
  const Case cases[] = {{Style::general, 3}, {Style::general, 6},
                        {Style::general, 12}, {Style::fixed, 0},
                        {Style::fixed, 1},    {Style::fixed, 2},
                        {Style::fixed, 3},    {Style::fixed, 4},
                        {Style::fixed, 5},    {Style::fixed, 6},
                        {Style::fixed, 12},   {Style::sci, 1},
                        {Style::sci, 2},      {Style::sci, 3},
                        {Style::sci, 4}};
  constexpr std::size_t kCases = sizeof cases / sizeof cases[0];
  constexpr int kPatterns = 1'000'000;
  Rng rng(20260417);
  int mismatches = 0;
  for (int i = 0; i < kPatterns && mismatches < 10; ++i) {
    const double value = std::bit_cast<double>(rng());
    const Case& c = cases[static_cast<std::size_t>(i) % kCases];
    const std::string expected = oracle(c.style, value, c.precision);
    const std::string actual = appended(c.style, value, c.precision);
    if (actual != expected) {
      ++mismatches;
      ADD_FAILURE() << name(c.style) << " p=" << c.precision << " bits=0x"
                    << std::hex << std::bit_cast<std::uint64_t>(value)
                    << ": '" << actual << "' != '" << expected << "'";
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// The same at plausible magnitudes (a bit pattern is rarely near 1),
// where rounding ties and the general style's fixed/scientific switch
// actually happen.
TEST(Format, RandomMagnitudesMatchTheStream) {
  Rng rng(7);
  for (int i = 0; i < 200'000; ++i) {
    const double mantissa = rng.next_double() * 2.0 - 1.0;
    const int exponent = static_cast<int>(rng.next_below(41)) - 20;
    const double value = mantissa * std::pow(10.0, exponent);
    const int precision = static_cast<int>(rng.next_below(13));
    ASSERT_EQ(appended(Style::general, value, precision + 1),
              oracle(Style::general, value, precision + 1))
        << value;
    ASSERT_EQ(appended(Style::fixed, value, precision),
              oracle(Style::fixed, value, precision))
        << value;
    ASSERT_EQ(appended(Style::sci, value, precision),
              oracle(Style::sci, value, precision))
        << value;
  }
}

TEST(Format, IntegersMatchToString) {
  const std::int64_t values[] = {0, 1, -1, 42, -1234567,
                                 std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t value : values) {
    std::string out;
    append_integer(out, value);
    EXPECT_EQ(out, std::to_string(value));
  }
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    const auto value = static_cast<std::int64_t>(rng());
    std::string out;
    append_integer(out, value);
    ASSERT_EQ(out, std::to_string(value));
  }
}

TEST(Format, CsvDoubleRowsMatchThePrecision12Stream) {
  std::vector<double> values = special_values();
  Rng rng(11);
  for (int i = 0; i < 2'000; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
    values.push_back((rng.next_double() - 0.5) * 1e6);
  }
  const std::string path = ::testing::TempDir() + "opindyn_format_csv.csv";
  {
    CsvWriter writer(path, {"v"});
    for (const double v : values) {
      writer.write_row(std::vector<double>{v});
    }
    writer.close();
  }
  std::string expected = "v\n";
  for (const double v : values) {
    expected += csv_escape(oracle_csv_cells({v})[0]) + "\n";
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream actual;
  actual << in.rdbuf();
  std::remove(path.c_str());
  EXPECT_EQ(actual.str(), expected);
}

// ---- certified cells ------------------------------------------------

/// Formats one certified cell over [lo, hi] and expects the bytes of
/// append_sci(exact); returns true when it settled without exact().
bool certified_matches_exact(double lo, double hi, double exact,
                             int digits) {
  EXPECT_LE(lo, exact) << "bad case";
  EXPECT_LE(exact, hi) << "bad case";
  int calls = 0;
  RowEmitter rows;
  rows.row().sci_certified(lo, hi, digits, [&calls, exact] {
    ++calls;
    return exact;
  });
  const RowBlock block = rows.take();
  std::string expected;
  append_sci(expected, exact, digits);
  expected += '\n';
  EXPECT_EQ(block.bytes, expected)
      << std::hexfloat << "lo=" << lo << " hi=" << hi << " exact=" << exact
      << " digits=" << digits;
  EXPECT_EQ(block.exact_cells, calls);
  return calls == 0;
}

/// Every double from `steps` ulps below x to `steps` above it.
std::vector<double> ulp_walk(double x, int steps) {
  double low = x;
  for (int i = 0; i < steps; ++i) {
    low = std::nextafter(low, -std::numeric_limits<double>::infinity());
  }
  std::vector<double> walk{low};
  for (int i = 0; i < 2 * steps; ++i) {
    walk.push_back(std::nextafter(walk.back(),
                                  std::numeric_limits<double>::infinity()));
  }
  return walk;
}

/// Every sub-interval of the walk, with every exact value inside it.
void expect_every_subinterval(const std::vector<double>& walk, int digits) {
  for (std::size_t a = 0; a < walk.size(); ++a) {
    for (std::size_t b = a; b < walk.size(); ++b) {
      for (std::size_t e = a; e <= b; ++e) {
        certified_matches_exact(walk[a], walk[b], walk[e], digits);
      }
    }
  }
}

TEST(Format, SciCertifiedNarrowIntervalsSettleAndMatchTheExactValue) {
  Rng rng(2718);
  int settled = 0;
  constexpr int kCases = 20'000;
  for (int i = 0; i < kCases; ++i) {
    const double mantissa = 1.0 + 9.0 * rng.next_double();
    const int exponent = static_cast<int>(rng.next_below(601)) - 300;
    const double x = (rng.next_bool(0.1) ? -mantissa : mantissa) *
                     std::pow(10.0, exponent);
    const double width =
        std::abs(x) *
        std::pow(10.0, -static_cast<double>(7 + rng.next_below(9)));
    const double lo = x - width * rng.next_double();
    const double hi = x + width * rng.next_double();
    const double inside = lo + (hi - lo) * rng.next_double();
    const int digits = rng.next_bool(0.5)
                           ? 4
                           : static_cast<int>(rng.next_below(6));
    for (const double exact : {lo, inside, hi}) {
      settled += certified_matches_exact(lo, hi, exact, digits);
    }
  }
  // Widths of 1e-7 relative and below rarely straddle a fifth digit.
  EXPECT_GT(settled, 3 * kCases * 9 / 10) << settled;
}

TEST(Format, SciCertifiedAtDecimalBucketEdges) {
  // x is the double nearest a rounding midpoint (k + 1/2) 10^(e - d) of
  // the d-decimal scientific format: the ulp walk around it crosses the
  // printed digit.
  Rng rng(31415);
  for (int i = 0; i < 400; ++i) {
    const int digits = static_cast<int>(rng.next_below(7));
    const double scale = std::pow(10.0, digits);
    const double k = scale + static_cast<double>(rng.next_below(
                                 static_cast<std::uint64_t>(9 * scale)));
    const int exponent = static_cast<int>(rng.next_below(81)) - 40;
    const double x = (k + 0.5) / scale * std::pow(10.0, exponent);
    expect_every_subinterval(ulp_walk(x, 2), digits);
  }
}

TEST(Format, SciCertifiedAtExactTiesAndTheCarry) {
  // Exactly representable midpoints, which to_chars rounds half to even:
  // six-digit integers ending in 5 at four decimals, and dyadic ones.
  Rng rng(1618);
  for (int i = 0; i < 200; ++i) {
    const double tie =
        10.0 * static_cast<double>(10'000 + rng.next_below(90'000)) + 5.0;
    expect_every_subinterval(ulp_walk(tie, 2), 4);
  }
  for (const double tie : {1.03125, 2.5, 0.125, -0.125}) {
    for (const int digits : {0, 1, 4}) {
      expect_every_subinterval(ulp_walk(tie, 2), digits);
    }
  }
  // 9.99995 rounds up into the next decade: "1.0000e+01".
  expect_every_subinterval(ulp_walk(9.99995, 3), 4);
  EXPECT_FALSE(certified_matches_exact(9.99994, 9.99996, 9.99995, 4));
  EXPECT_TRUE(certified_matches_exact(9.999951, 9.999952, 9.9999515, 4));
  EXPECT_FALSE(certified_matches_exact(9.999949, 10.00001, 10.0, 4));
}

TEST(Format, SciCertifiedAroundZeroDenormalsAndNonFiniteValues) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double inf = std::numeric_limits<double>::infinity();
  // An interval holding zero never settles: the sign of a zero prints.
  EXPECT_FALSE(certified_matches_exact(0.0, 0.0, 0.0, 4));
  EXPECT_FALSE(certified_matches_exact(0.0, 0.0, -0.0, 4));
  EXPECT_FALSE(certified_matches_exact(-0.0, 0.0, 0.0, 4));
  EXPECT_FALSE(certified_matches_exact(-1e-300, 1e-300, 0.0, 4));
  EXPECT_FALSE(certified_matches_exact(-tiny, tiny, -0.0, 4));
  // Negative lo with a positive value inside.
  EXPECT_FALSE(certified_matches_exact(-1e-20, 1e-10, 3e-15, 4));
  EXPECT_FALSE(certified_matches_exact(-1.0, 2.0, 1.5, 4));
  // Subnormals, where a few ulps span several printed digits.
  for (const double x : {tiny, 3 * tiny, 1234 * tiny, 0x1p-1030,
                         0x1p-1022}) {
    for (const int digits : {0, 1, 4}) {
      expect_every_subinterval(ulp_walk(x, 2), digits);
    }
  }
  // Negative intervals settle like positive ones.
  EXPECT_TRUE(certified_matches_exact(-1.2345678 * (1 + 1e-9),
                                      -1.2345678 * (1 - 1e-9), -1.2345678,
                                      4));
  expect_every_subinterval(ulp_walk(-9.99995, 2), 4);
  // Infinities and NaN take the exact path.
  certified_matches_exact(inf, inf, inf, 4);
  certified_matches_exact(1.0, inf, 2.0, 4);
  certified_matches_exact(-inf, -1.0, -2.0, 4);
  int calls = 0;
  RowEmitter rows;
  rows.row().sci_certified(std::numeric_limits<double>::quiet_NaN(), 1.0, 4,
                           [&calls] {
                             ++calls;
                             return 0.5;
                           });
  EXPECT_EQ(rows.take().bytes, "5.0000e-01\n");
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace opindyn
