#include "src/support/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace opindyn {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowIsApproximatelyUniform) {
  Rng rng(11);
  constexpr std::uint64_t bound = 10;
  constexpr int draws = 100000;
  std::vector<int> counts(bound, 0);
  for (int i = 0; i < draws; ++i) {
    ++counts[rng.next_below(bound)];
  }
  // Chi-squared with 9 dof: 99.9th percentile ~ 27.9.
  double chi2 = 0.0;
  const double expected = static_cast<double>(draws) / bound;
  for (const int c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  EXPECT_LT(chi2, 27.9);
}

TEST(Rng, FillBelowMatchesSequentialNextBelowExactly) {
  // The HK burst kernel batches its draws through fill_below; the stream
  // contract is EXACT equality with sequential next_below, including
  // the state left behind (checked via the next raw draw).
  for (const std::uint64_t bound :
       {1ULL, 3ULL, 7ULL, 1000ULL, (1ULL << 32) - 5, 1ULL << 40}) {
    Rng batched(99);
    Rng sequential(99);
    std::uint64_t buffer[133];  // odd size: exercises any tail handling
    batched.fill_below(bound, buffer, 133);
    for (int i = 0; i < 133; ++i) {
      EXPECT_EQ(buffer[i], sequential.next_below(bound))
          << "bound=" << bound << " i=" << i;
    }
    EXPECT_EQ(batched(), sequential()) << "bound=" << bound;
  }
}

TEST(Rng, NextDoubleIsInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextDoubleMomentsMatchUniform) {
  Rng rng(17);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int draws = 200000;
  for (int i = 0; i < draws; ++i) {
    const double x = rng.next_double();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / draws, 0.5, 0.005);
  EXPECT_NEAR(sum_sq / draws, 1.0 / 3.0, 0.005);
}

TEST(Rng, GaussianMomentsMatchStandardNormal) {
  Rng rng(19);
  double sum = 0.0;
  double sum_sq = 0.0;
  double sum_4 = 0.0;
  constexpr int draws = 200000;
  for (int i = 0; i < draws; ++i) {
    const double x = rng.next_gaussian();
    sum += x;
    sum_sq += x * x;
    sum_4 += x * x * x * x;
  }
  EXPECT_NEAR(sum / draws, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / draws, 1.0, 0.02);
  EXPECT_NEAR(sum_4 / draws, 3.0, 0.1);  // kurtosis of N(0,1)
}

TEST(Rng, NextIntCoversInclusiveRange) {
  Rng rng(23);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t x = rng.next_int(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, ForkedStreamsAreIndependentAndDeterministic) {
  Rng a = Rng::fork(99, 0);
  Rng a2 = Rng::fork(99, 0);
  Rng b = Rng::fork(99, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto va = a();
    EXPECT_EQ(va, a2());
    if (va == b()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, NextBoolProbability) {
  Rng rng(31);
  int heads = 0;
  constexpr int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    heads += rng.next_bool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(heads) / draws, 0.3, 0.01);
}

TEST(RngJump, AdvanceEqualsThatManyCalls) {
  // N = 256 is P(T) s = 0 itself (x^256 mod P is P's low part), so on
  // several random states it pins the hardcoded characteristic
  // polynomial; the other lengths cover the square-and-multiply.
  for (const std::uint64_t words :
       {0ULL, 1ULL, 2ULL, 255ULL, 256ULL, 257ULL, 65535ULL, 1ULL << 20,
        12345678ULL}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("words=" + std::to_string(words) +
                   " seed=" + std::to_string(seed));
      Rng stepped(seed);
      for (std::uint64_t i = 0; i < words; ++i) {
        stepped();
      }
      Rng jumped(seed);
      jumped.advance(words);
      EXPECT_TRUE(jumped == stepped);
      EXPECT_EQ(jumped(), stepped());
    }
  }
}

TEST(RngJump, PolynomialsReproduceThePublishedJumpConstants) {
  // The reference jump() and long_jump() of xoshiro256 apply x^(2^128)
  // and x^(2^192) mod P.
  const Rng::Jump jump = {0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                          0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
  const Rng::Jump long_jump = {0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL,
                               0x77710069854ee241ULL, 0x39109bb02acbe635ULL};
  EXPECT_EQ(Rng::jump_polynomial(1, 128), jump);
  EXPECT_EQ(Rng::jump_polynomial(1, 192), long_jump);
  EXPECT_EQ(Rng::jump_polynomial(3, 4), Rng::jump_polynomial(48));
  EXPECT_EQ(Rng::jump_polynomial(1ULL << 40, 24), Rng::jump_polynomial(1, 64));
}

TEST(Splitmix64, KnownSequenceAdvancesState) {
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64(state);
  const std::uint64_t second = splitmix64(state);
  EXPECT_NE(first, second);
  EXPECT_EQ(state, 2 * 0x9e3779b97f4a7c15ULL);
}

}  // namespace
}  // namespace opindyn
