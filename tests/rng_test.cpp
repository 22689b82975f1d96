#include "pp/rng.hpp"

#include <gtest/gtest.h>

#include <set>

#include "pp/random.hpp"

namespace ssr {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  xoshiro256pp a(42);
  xoshiro256pp b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  xoshiro256pp a(1);
  xoshiro256pp b(2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) same += a() == b() ? 1 : 0;
  EXPECT_LT(same, 5);
}

TEST(Rng, DerivedSeedsAreDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 10000; ++i)
    seeds.insert(derive_seed(123, i));
  EXPECT_EQ(seeds.size(), 10000u);
}

TEST(Rng, DerivedSeedsDependOnBase) {
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
}

TEST(Rng, JumpYieldsDisjointSubsequences) {
  // jump() advances 2^128 steps: the pre- and post-jump output windows are
  // different subsequences of one stream and must not overlap.
  xoshiro256pp a(99);
  xoshiro256pp b = a;
  b.jump();
  std::set<std::uint64_t> from_a;
  for (int i = 0; i < 4096; ++i) from_a.insert(a());
  int collisions = 0;
  for (int i = 0; i < 4096; ++i) collisions += from_a.count(b()) ? 1 : 0;
  EXPECT_EQ(collisions, 0);
}

TEST(Rng, LongJumpYieldsDisjointSubsequences) {
  xoshiro256pp a(101);
  xoshiro256pp b = a;
  b.long_jump();
  std::set<std::uint64_t> from_a;
  for (int i = 0; i < 4096; ++i) from_a.insert(a());
  int collisions = 0;
  for (int i = 0; i < 4096; ++i) collisions += from_a.count(b()) ? 1 : 0;
  EXPECT_EQ(collisions, 0);
}

TEST(Rng, JumpIsDeterministic) {
  xoshiro256pp a(7);
  xoshiro256pp b(7);
  a.jump();
  b.jump();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(UniformBelow, StaysInRange) {
  rng_t rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(uniform_below(rng, 10), 10u);
    EXPECT_EQ(uniform_below(rng, 1), 0u);
  }
}

TEST(UniformBelow, RoughlyUniform) {
  rng_t rng(11);
  constexpr int buckets = 16;
  constexpr int draws = 160000;
  int count[buckets] = {};
  for (int i = 0; i < draws; ++i) ++count[uniform_below(rng, buckets)];
  const double expected = static_cast<double>(draws) / buckets;
  for (int b = 0; b < buckets; ++b) {
    EXPECT_NEAR(count[b], expected, 5 * std::sqrt(expected))
        << "bucket " << b;
  }
}

TEST(UniformBelow, RejectsZeroBound) {
  rng_t rng(1);
  EXPECT_THROW(uniform_below(rng, 0), std::logic_error);
}

TEST(UniformRange, InclusiveBounds) {
  rng_t rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = uniform_range(rng, -2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(UniformUnit, InHalfOpenInterval) {
  rng_t rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = uniform_unit(rng);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(GeometricFailures, MatchesExpectation) {
  rng_t rng(17);
  const double p = 0.1;
  double sum = 0.0;
  constexpr int draws = 200000;
  for (int i = 0; i < draws; ++i)
    sum += static_cast<double>(geometric_failures(rng, p));
  const double mean = sum / draws;
  // E[failures] = (1-p)/p = 9.
  EXPECT_NEAR(mean, 9.0, 0.2);
}

TEST(GeometricFailures, CertainSuccessIsZero) {
  rng_t rng(19);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(geometric_failures(rng, 1.0), 0u);
}

TEST(CoinFlip, RoughlyFair) {
  rng_t rng(23);
  int heads = 0;
  constexpr int draws = 100000;
  for (int i = 0; i < draws; ++i) heads += coin_flip(rng) ? 1 : 0;
  EXPECT_NEAR(heads, draws / 2, 5 * std::sqrt(draws / 4.0));
}

}  // namespace
}  // namespace ssr
