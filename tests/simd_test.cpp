// First-principles checks for the block scheduler's pair-sampling kernels
// (pp/simd.hpp): the divider against native 64-bit division on adversarial
// divisors, the Lemire map against uniform_below's accept rule on a copied
// RNG, the pair decode against every ordered distinct pair, and the sum
// against its wraparound mod 2^64.  The block scheduler's pair stream is
// seed-pinned, so a one-in-2^64 rounding error in the divider would fork
// trajectories silently.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "pp/random.hpp"
#include "pp/rng.hpp"
#include "pp/simd.hpp"

namespace ssr {
namespace {

std::vector<std::uint64_t> random_words(rng_t& rng, std::size_t count) {
  std::vector<std::uint64_t> words(count);
  for (auto& w : words) w = rng();
  return words;
}

TEST(Simd, DividerMatchesNativeDivision) {
  rng_t rng(31);
  std::vector<std::uint64_t> divisors = {
      1, 2, 3, 5, 6, 7, 10, 11, 31, 100, 641, 65'537,
      // n(n-1) shapes the engines actually divide by.
      std::uint64_t{100} * 99, std::uint64_t{1'000'000} * 999'999,
      std::numeric_limits<std::uint64_t>::max(),
      std::numeric_limits<std::uint64_t>::max() - 1,
  };
  for (std::uint32_t k = 0; k < 64; ++k)
    divisors.push_back(std::uint64_t{1} << k);  // every power of two
  for (int i = 0; i < 40; ++i) divisors.push_back(rng() | 1);
  for (const std::uint64_t d : divisors) {
    const simd::u64_divider divider(d);
    EXPECT_EQ(divider.divisor(), d);
    std::vector<std::uint64_t> numerators = {
        0, 1, d - 1, d, d + 1, d * 2 - 1, d * 2,
        std::numeric_limits<std::uint64_t>::max(),
        std::numeric_limits<std::uint64_t>::max() - 1,
    };
    for (int i = 0; i < 50; ++i) numerators.push_back(rng());
    for (const std::uint64_t x : numerators) {
      ASSERT_EQ(divider.divide(x), x / d) << "x=" << x << " d=" << d;
    }
  }
}

TEST(Simd, DividerRejectsZero) {
  EXPECT_THROW(simd::u64_divider(0), std::logic_error);
}

TEST(Simd, LemireMapImplementsUniformBelowAcceptRule) {
  // Feeding the same word stream through the kernel and through
  // uniform_below must yield the same accepted values: the kernel's accept
  // flag and mapped value are uniform_below's rejection loop, unrolled.
  const std::uint64_t bounds[] = {2, 3, 10, 24 * 23, 1'000'000'007};
  for (const std::uint64_t bound : bounds) {
    rng_t rng(500 + bound);
    rng_t rng_copy = rng;
    const std::size_t kDraws = 200;
    // Pull enough raw words to cover kDraws accepted values (rejection rate
    // is < 50% for any bound, so 3x is generous; assert we never run out).
    const auto raw = random_words(rng, 8 * kDraws);
    std::vector<std::uint64_t> value(raw.size());
    std::vector<std::uint8_t> accept(raw.size());
    simd::lemire_map(raw.data(), raw.size(), bound, value.data(),
                     accept.data());
    std::size_t cursor = 0;
    for (std::size_t draw = 0; draw < kDraws; ++draw) {
      const std::uint64_t expected = uniform_below(rng_copy, bound);
      while (cursor < raw.size() && accept[cursor] == 0) ++cursor;
      ASSERT_LT(cursor, raw.size()) << "raw word pool exhausted";
      EXPECT_EQ(value[cursor], expected)
          << "bound=" << bound << " draw=" << draw;
      ++cursor;
    }
  }
}

TEST(Simd, DecodeProducesOrderedDistinctPairs) {
  // Exhaustive over a small pair space: k in [0, n(n-1)) with cols = n - 1
  // must hit every ordered distinct pair over [0, n) exactly once -- the
  // sample_pair decode (i = k / cols, j = k mod cols, j += (j >= i)).
  const std::uint64_t n = 13;
  const simd::u64_divider cols(n - 1);
  const std::uint64_t space = n * (n - 1);
  std::vector<std::uint64_t> k(space);
  for (std::uint64_t x = 0; x < space; ++x) k[x] = x;
  std::vector<std::uint64_t> i(space), j(space);
  simd::decode_ordered_distinct(k.data(), space, cols, i.data(), j.data());
  std::vector<int> hits(n * n, 0);
  for (std::uint64_t x = 0; x < space; ++x) {
    ASSERT_LT(i[x], n);
    ASSERT_LT(j[x], n);
    ASSERT_NE(i[x], j[x]);
    ++hits[i[x] * n + j[x]];
  }
  for (std::uint64_t a = 0; a < n; ++a) {
    for (std::uint64_t b = 0; b < n; ++b) {
      EXPECT_EQ(hits[a * n + b], a == b ? 0 : 1)
          << "pair (" << a << "," << b << ")";
    }
  }
}

TEST(Simd, SumMatchesScalarIncludingWraparound) {
  rng_t rng(43);
  const std::size_t counts[] = {0, 1, 2, 3, 9, 257};
  for (const std::size_t count : counts) {
    const auto v = random_words(rng, count);  // large words: sums wrap
    std::uint64_t expected = 0;
    for (const std::uint64_t x : v) expected += x;
    EXPECT_EQ(simd::sum_u64(v.data(), count), expected) << "count=" << count;
  }
}

}  // namespace
}  // namespace ssr
