// Deterministic pseudo-random number generation for simulations.
//
// We use xoshiro256++ (Blackman & Vigna), seeded through splitmix64, rather
// than std::mt19937_64: it is faster, has a tiny state, and its streams are
// reproducible across standard library implementations, which matters for
// seed-pinned tests.
#pragma once

#include <cstdint>
#include <limits>

namespace ssr {

/// splitmix64 step; used to expand a single 64-bit seed into a full
/// xoshiro256++ state and as a cheap hash for deriving per-trial seeds.
constexpr std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Derives a decorrelated child seed from (base, stream); used so that every
/// trial in a sweep gets an independent, reproducible stream.
constexpr std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) {
  std::uint64_t x = base ^ (0x2545f4914f6cdd1dULL * (stream + 1));
  // Two splitmix rounds fully avalanche the combination.
  (void)splitmix64(x);
  return splitmix64(x);
}

/// xoshiro256++ engine.  Satisfies std::uniform_random_bit_generator.
class xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  explicit constexpr xoshiro256pp(std::uint64_t seed = 0x9059e5e54a1048ccULL) {
    std::uint64_t x = seed;
    for (auto& word : state_) word = splitmix64(x);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Advances the state by 2^128 steps (Blackman & Vigna's jump
  /// polynomial): up to 2^128 non-overlapping subsequences for parallel
  /// workers that partition one logical stream.
  constexpr void jump() {
    constexpr std::uint64_t polynomial[4] = {
        0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
        0x39abdc4529b1661cULL};
    apply_jump(polynomial);
  }

  /// Advances the state by 2^192 steps; each long_jump yields a block that
  /// itself holds 2^64 jump() subsequences.
  constexpr void long_jump() {
    constexpr std::uint64_t polynomial[4] = {
        0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
        0x39109bb02acbe635ULL};
    apply_jump(polynomial);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  constexpr void apply_jump(const std::uint64_t (&polynomial)[4]) {
    std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (const std::uint64_t word : polynomial) {
      for (int b = 0; b < 64; ++b) {
        if (word & (std::uint64_t{1} << b)) {
          s0 ^= state_[0];
          s1 ^= state_[1];
          s2 ^= state_[2];
          s3 ^= state_[3];
        }
        (void)(*this)();
      }
    }
    state_[0] = s0;
    state_[1] = s1;
    state_[2] = s2;
    state_[3] = s3;
  }

  std::uint64_t state_[4]{};
};

using rng_t = xoshiro256pp;

}  // namespace ssr
