// The to_chars appenders of support/format.h against the stream-based
// formatting they replaced, kept here verbatim as the oracle: the
// scenario cell helpers fmt / fmt_fixed / fmt_sci and the precision-12
// CsvWriter::write_row(std::vector<double>).  Every byte of every CSV
// rests on the two agreeing, so the comparison covers the special
// values at every precision and a million seeded random bit patterns
// at the precisions the scenarios use.
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

}  // namespace
}  // namespace opindyn
