#include "src/support/rng.h"

#include <bit>
#include <cmath>

#include "src/support/assert.h"

namespace opindyn {
namespace {

using Poly = Rng::Jump;  // a polynomial of degree < 256 over GF(2)

// P = x^256 + kCharLow: the characteristic polynomial of xoshiro256's
// linear engine, from Berlekamp-Massey over 512 bits of one state bit.
// Tests pin it twice: advance(N) equals N calls (for N = 256 that is
// P(T) s = 0), and x^(2^128), x^(2^192) mod P are the published JUMP and
// LONG_JUMP constants.
constexpr Poly kCharLow = {0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL,
                           0x04b4edcf26259f85ULL, 0x0003c03c3f3ecb19ULL};

// x * a mod P.
constexpr Poly times_x(Poly a) noexcept {
  const std::uint64_t overflow = a[3] >> 63;
  for (int w = 3; w > 0; --w) {
    a[w] = (a[w] << 1) | (a[w - 1] >> 63);
  }
  a[0] <<= 1;
  if (overflow != 0) {
    for (int w = 0; w < 4; ++w) {
      a[w] ^= kCharLow[w];
    }
  }
  return a;
}

// kHigh[j] = x^(256+j) mod P, so a product's high bits reduce by table
// lookups instead of shifted copies of P.
constexpr std::array<Poly, 256> make_high_powers() noexcept {
  std::array<Poly, 256> table{};
  table[0] = kCharLow;
  for (std::size_t j = 1; j < table.size(); ++j) {
    table[j] = times_x(table[j - 1]);
  }
  return table;
}
constexpr std::array<Poly, 256> kHigh = make_high_powers();

// Bits 0..31 of x moved to the even positions: squaring in GF(2)[x].
constexpr std::uint64_t spread_bits(std::uint64_t x) noexcept {
  x &= 0xffffffffULL;
  x = (x | (x << 16)) & 0x0000ffff0000ffffULL;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffULL;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0fULL;
  x = (x | (x << 2)) & 0x3333333333333333ULL;
  x = (x | (x << 1)) & 0x5555555555555555ULL;
  return x;
}

// a^2 mod P.
Poly square(const Poly& a) noexcept {
  Poly low{};
  for (int w = 0; w < 2; ++w) {
    low[2 * w] = spread_bits(a[w]);
    low[2 * w + 1] = spread_bits(a[w] >> 32);
  }
  for (int w = 2; w < 4; ++w) {
    for (int half = 0; half < 2; ++half) {
      std::uint64_t high = spread_bits(a[w] >> (32 * half));
      const int base = 64 * (2 * (w - 2) + half);
      while (high != 0) {
        const Poly& reduced = kHigh[static_cast<std::size_t>(
            base + __builtin_ctzll(high))];
        high &= high - 1;
        for (int k = 0; k < 4; ++k) {
          low[k] ^= reduced[k];
        }
      }
    }
  }
  return low;
}

}  // namespace

Rng::Jump Rng::jump_polynomial(std::uint64_t words,
                               unsigned doublings) noexcept {
  // Square-and-multiply from the top bit: x^(2m) = (x^m)^2 and
  // x^(2m+1) = x * (x^m)^2.
  Poly power{1, 0, 0, 0};
  for (int bit = 63 - std::countl_zero(words | 1); bit >= 0; --bit) {
    power = square(power);
    if (((words >> bit) & 1U) != 0) {
      power = times_x(power);
    }
  }
  for (unsigned i = 0; i < doublings; ++i) {
    power = square(power);
  }
  return power;
}

void Rng::jump(const Jump& jump) noexcept {
  std::array<std::uint64_t, 4> sum{};
  for (std::size_t w = 0; w < 4; ++w) {
    for (int bit = 0; bit < 64; ++bit) {
      if (((jump[w] >> bit) & 1U) != 0) {
        for (std::size_t k = 0; k < 4; ++k) {
          sum[k] ^= state_[k];
        }
      }
      (*this)();
    }
  }
  state_ = sum;
}

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept : state_{} {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = splitmix64(s);
  }
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1ULL;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double(double lo, double hi) noexcept {
  return lo + (hi - lo) * next_double();
}

double Rng::next_gaussian() noexcept {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = 2.0 * next_double() - 1.0;
    v = 2.0 * next_double() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

Rng Rng::fork(std::uint64_t seed, std::uint64_t stream_index) noexcept {
  // Mix the stream index into the seed through two splitmix64 rounds so
  // that nearby indices produce unrelated streams.
  std::uint64_t s = seed;
  const std::uint64_t base = splitmix64(s);
  std::uint64_t t = base ^ (stream_index * 0xd1342543de82ef95ULL + 1);
  const std::uint64_t child_seed = splitmix64(t);
  return Rng(child_seed);
}

}  // namespace opindyn
