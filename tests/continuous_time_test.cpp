#include "pp/continuous_time.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "pp/engine.hpp"
#include "protocols/silent_n_state.hpp"

namespace ssr {
namespace {

TEST(ContinuousTime, ExponentialDrawHasUnitMean) {
  rng_t rng(1);
  double sum = 0.0;
  constexpr int draws = 200000;
  for (int i = 0; i < draws; ++i) sum += exponential_draw(rng);
  EXPECT_NEAR(sum / draws, 1.0, 0.01);
}

TEST(ContinuousTime, ClockAdvancesMonotonically) {
  poisson_clock clock(8);
  rng_t rng(2);
  double prev = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double t = clock.tick(rng);
    EXPECT_GT(t, prev);
    prev = t;
  }
  EXPECT_EQ(clock.events(), 1000u);
}

// After k events, continuous time is Gamma(k, 1/n): mean k/n (the parallel
// time), standard deviation sqrt(k)/n.  The two time measures coincide up
// to lower-order fluctuations.
TEST(ContinuousTime, ConcentratesAroundParallelTime) {
  const std::uint32_t n = 64;
  constexpr std::uint64_t k = 64000;  // 1000 parallel time units
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    poisson_clock clock(n);
    rng_t rng(seed);
    for (std::uint64_t i = 0; i < k; ++i) clock.tick(rng);
    const double expected = clock.parallel_time();
    const double sigma = std::sqrt(static_cast<double>(k)) / n;
    EXPECT_NEAR(clock.now(), expected, 6 * sigma) << "seed " << seed;
  }
}

// End-to-end: running the baseline under the continuous clock, the
// continuous stabilization time matches the discrete parallel time within
// the Gamma fluctuation band.
TEST(ContinuousTime, StabilizationTimesAgreeAcrossSemantics) {
  const std::uint32_t n = 32;
  silent_n_state_ssr p(n);
  direct_engine<silent_n_state_ssr> sim(
      p, std::vector<silent_n_state_ssr::agent_state>(n), 7);
  poisson_clock clock(n);
  rng_t clock_rng(8);
  sim.run(UINT64_MAX, [](const agent_pair&) {}, [&](const agent_pair&, bool) {
    clock.tick(clock_rng);
    return is_valid_ranking(sim.protocol(), sim.agents());
  });
  const double discrete = sim.parallel_time();
  const double continuous = clock.now();
  const double sigma =
      std::sqrt(static_cast<double>(sim.interactions())) / n;
  EXPECT_NEAR(continuous, discrete, 6 * sigma + 1e-9);
}

}  // namespace
}  // namespace ssr
