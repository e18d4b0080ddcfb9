// Deterministic, fast pseudo-random number generation.
//
// The library uses xoshiro256++ (Blackman & Vigna) seeded through
// splitmix64, which is the recommended seeding procedure for the xoshiro
// family.  Compared to std::mt19937_64 it is ~2x faster and has a tiny
// state, which matters because Monte-Carlo experiments run billions of
// process steps.  Every experiment takes an explicit 64-bit seed so runs
// are exactly reproducible; per-replica streams are derived with
// `Rng::fork`, which walks an independent splitmix64 sequence.
//
// Jump-ahead.  xoshiro256's state update is a linear map T on GF(2)^256
// (the ++ scrambler only shapes the output), so N words later the state
// is T^N s.  With P the characteristic polynomial of T, T^N = c(T) for
// c(x) = x^N mod P (Cayley-Hamilton), and c(T) s is a sum of the states
// s, T s, ..., T^255 s picked by c's coefficients: 256 steps and XORs,
// exactly how the reference jump() applies its JUMP constant, which is
// x^(2^128) mod P (Haramoto et al., "Efficient jump ahead for F2-linear
// random number generators", 2008).  `jump_polynomial` computes c by
// square-and-multiply in GF(2)[x] / P, word-wise, in microseconds.
#ifndef OPINDYN_SUPPORT_RNG_H
#define OPINDYN_SUPPORT_RNG_H

#include <array>
#include <cstdint>

namespace opindyn {

/// splitmix64 step: used for seeding and stream derivation.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256++ generator.  Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  // The per-step draws (raw word, bounded integer, unit double, coin)
  // are defined inline: the burst kernels draw up to k + 1 times per
  // step, and an out-of-line call per draw dominates their loop.

  /// Next raw 64-bit value.
  result_type operator()() noexcept {
    const std::uint64_t result =
        rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound).  Uses Lemire's multiply-shift rejection
  /// method, which is unbiased and avoids the modulo.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    if (bound == 0) {
      return 0;
    }
    return next_below_nonzero(bound);
  }

  /// next_below for callers that guarantee bound > 0 -- the burst
  /// kernels, whose bound is a node/arc count checked once per burst.
  /// Identical stream and results; the zero test above is the only
  /// thing skipped (it otherwise re-executes per step inside the hot
  /// loops, as the compiler cannot hoist a branch out of an opaque
  /// reference).
  std::uint64_t next_below_nonzero(std::uint64_t bound) noexcept {
    return below_from((*this)(), bound);
  }

  /// next_below_nonzero after its first word `x` has been drawn: the
  /// multiply-shift and, when the low product word falls below the
  /// threshold, the redraw loop on this generator's words.  The lane
  /// kernel (core/lane_kernel.h) draws first words eight streams at a
  /// time and finishes its rare redraws here, so both paths share one
  /// rejection rule.
  std::uint64_t below_from(std::uint64_t x, std::uint64_t bound) noexcept {
    // Lemire 2019: unbiased bounded integers without division in the
    // common path.
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0ULL - bound) % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Fills out[0..count) with draws uniform in [0, bound), consuming
  /// EXACTLY the stream of `count` sequential next_below(bound) calls
  /// (same words drawn, same rejections).  The HK burst kernel uses this
  /// to split random-index generation from its sequential apply: the
  /// rejection threshold is hoisted out of the loop and the compiler
  /// can pipeline the multiply-shift across iterations, which a
  /// one-at-a-time call chain hides.
  void fill_below(std::uint64_t bound, std::uint64_t* out,
                  std::size_t count) noexcept {
    if (bound == 0) {
      for (std::size_t i = 0; i < count; ++i) {
        out[i] = 0;
      }
      return;
    }
    // Same rejection rule as next_below: redraw iff low < threshold.
    // (next_below computes the threshold lazily behind `low < bound`,
    // but threshold < bound, so the consumed stream is identical.)
    const std::uint64_t threshold = (0ULL - bound) % bound;
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t x = (*this)();
      __uint128_t m = static_cast<__uint128_t>(x) * bound;
      auto low = static_cast<std::uint64_t>(m);
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
      out[i] = static_cast<std::uint64_t>(m >> 64);
    }
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t next_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1) with 53 random bits.
  double next_double() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi) noexcept;

  /// Standard normal via Marsaglia polar method.
  double next_gaussian() noexcept;

  /// Bernoulli(p).
  bool next_bool(double p) noexcept { return next_double() < p; }

  /// Derives the i-th independent child stream of this generator's seed.
  /// Deterministic: fork(s, i) always yields the same stream.
  static Rng fork(std::uint64_t seed, std::uint64_t stream_index) noexcept;

  /// A jump: the coefficients of x^N mod P, bit i of word w for x^(64w+i).
  using Jump = std::array<std::uint64_t, 4>;

  /// The jump over exactly `words` * 2^`doublings` calls of operator().
  /// A bounded draw that redraws consumes two words or more, so this
  /// counts words, not draws.  Compute once, apply to any number of
  /// states.  jump_polynomial(1, 128) is the reference jump().
  static Jump jump_polynomial(std::uint64_t words,
                              unsigned doublings = 0) noexcept;

  /// Moves the word stream by `jump`: afterwards operator() returns what
  /// it would have returned after the jump's N calls.  The Gaussian
  /// cache is left alone.
  void jump(const Jump& jump) noexcept;

  /// jump(jump_polynomial(words)).
  void advance(std::uint64_t words) noexcept { jump(jump_polynomial(words)); }

  /// The four xoshiro256 state words.  The lane kernel loads eight
  /// streams' words into vector registers and stores them back, so a
  /// stream stepped in a lane continues exactly where it stopped.
  using State = std::array<std::uint64_t, 4>;
  const State& state() const noexcept { return state_; }
  /// Replaces the state words; the Gaussian cache is left alone.  An
  /// all-zero state is a fixed point of the engine.
  void set_state(const State& state) noexcept { state_ = state; }

  /// Same state and Gaussian cache: both generators produce the same
  /// stream from here on.
  bool operator==(const Rng& other) const noexcept = default;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  State state_;
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace opindyn

#endif  // OPINDYN_SUPPORT_RNG_H
