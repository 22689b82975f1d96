#include "protocols/silent_n_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/ks_test.hpp"
#include "analysis/statistics.hpp"
#include "pp/convergence.hpp"
#include "pp/simulation.hpp"
#include "pp/trial.hpp"
#include "protocols/adversary.hpp"

namespace ssr {
namespace {

TEST(SilentNState, TransitionIsProtocolOne) {
  silent_n_state_ssr p(5);
  rng_t rng(1);
  silent_n_state_ssr::agent_state a{2}, b{2};
  EXPECT_TRUE(p.interact(a, b, rng));
  EXPECT_EQ(a.rank, 2u);  // initiator unchanged
  EXPECT_EQ(b.rank, 3u);  // responder bumped

  silent_n_state_ssr::agent_state c{1}, d{3};
  EXPECT_FALSE(p.interact(c, d, rng));
  EXPECT_EQ(c.rank, 1u);
  EXPECT_EQ(d.rank, 3u);
}

TEST(SilentNState, RankWrapsModuloN) {
  silent_n_state_ssr p(4);
  rng_t rng(1);
  silent_n_state_ssr::agent_state a{3}, b{3};
  p.interact(a, b, rng);
  EXPECT_EQ(b.rank, 0u);
}

TEST(SilentNState, ExactlyNStates) {
  EXPECT_EQ(silent_n_state_ssr::state_count(17), 17u);
}

TEST(SilentNState, StabilizesFromAllZero) {
  silent_n_state_ssr p(16);
  std::vector<silent_n_state_ssr::agent_state> init(16);
  std::vector<silent_n_state_ssr::agent_state> final_config;
  const auto r = measure_convergence(p, init, 77, {}, &final_config);
  ASSERT_TRUE(r.converged);
  EXPECT_TRUE(is_valid_ranking(p, final_config));
  // Silent once correct.
  simulation<silent_n_state_ssr> sim(p, final_config, 1);
  EXPECT_TRUE(sim.is_silent_configuration());
}

// Self-stabilization property: valid ranking reached from random
// adversarial configurations across seeds and sizes.
class SilentNStateStabilization
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>> {};

TEST_P(SilentNStateStabilization, ReachesValidRanking) {
  const auto [n, seed] = GetParam();
  silent_n_state_ssr p(n);
  rng_t rng(static_cast<std::uint64_t>(seed) * 7919 + n);
  auto init = adversarial_configuration(p, rng);
  std::vector<silent_n_state_ssr::agent_state> final_config;
  convergence_options opt;
  opt.max_parallel_time = 1e7;
  const auto r = measure_convergence(p, std::move(init), seed, opt,
                                     &final_config);
  ASSERT_TRUE(r.converged) << "n=" << n << " seed=" << seed;
  EXPECT_TRUE(is_valid_ranking(p, final_config));
  EXPECT_EQ(leader_count(p, final_config), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SilentNStateStabilization,
    ::testing::Combine(::testing::Values(2u, 3u, 5u, 8u, 16u, 33u),
                       ::testing::Range(0, 5)));

TEST(SilentNState, LowerBoundConfigurationShape) {
  silent_n_state_ssr p(8);
  const auto config = p.lower_bound_configuration();
  std::vector<int> count(8, 0);
  for (const auto& s : config) ++count[s.rank];
  EXPECT_EQ(count[0], 2);
  EXPECT_EQ(count[7], 0);
  for (int r = 1; r < 7; ++r) EXPECT_EQ(count[r], 1);
}

TEST(AcceleratedSilentNState, AgreesWithDirectSimulatorOnAverage) {
  // Distributional check: mean stabilization times of the direct and
  // accelerated simulators from the same initial configuration must agree
  // within sampling error.
  const std::uint32_t n = 12;
  silent_n_state_ssr p(n);
  std::vector<silent_n_state_ssr::agent_state> init(n);  // all rank 0

  const auto direct = run_trials(150, 1000, [&](std::uint64_t seed) {
    const auto r = measure_convergence(p, init, seed);
    return r.convergence_time;
  });
  const auto fast = run_trials(150, 2000, [&](std::uint64_t seed) {
    std::vector<std::uint32_t> ranks(n, 0);
    accelerated_silent_n_state sim(n, ranks, seed);
    return sim.run_to_stabilization();
  });
  const summary ds = summarize(direct);
  const summary fs = summarize(fast);
  const double tolerance =
      4.0 * std::sqrt(ds.stderr_mean * ds.stderr_mean +
                      fs.stderr_mean * fs.stderr_mean);
  EXPECT_NEAR(ds.mean, fs.mean, tolerance);
}

TEST(AcceleratedSilentNState, DistributionMatchesDirectSimulator) {
  // Full-distribution check (Kolmogorov-Smirnov), not just the mean: the
  // accelerated simulator samples the exact embedded jump chain, so the
  // stabilization-time distributions must coincide.
  const std::uint32_t n = 10;
  silent_n_state_ssr p(n);
  std::vector<silent_n_state_ssr::agent_state> init(n);  // all rank 0

  const auto direct = run_trials(400, 51000, [&](std::uint64_t seed) {
    return measure_convergence(p, init, seed).convergence_time;
  });
  const auto fast = run_trials(400, 52000, [&](std::uint64_t seed) {
    std::vector<std::uint32_t> ranks(n, 0);
    accelerated_silent_n_state sim(n, ranks, seed);
    return sim.run_to_stabilization();
  });
  const auto ks = ks_two_sample(direct, fast);
  EXPECT_GT(ks.p_value, 0.001) << "KS statistic " << ks.statistic;
}

TEST(AcceleratedSilentNState, StableImmediatelyOnValidRanking) {
  std::vector<std::uint32_t> ranks{0, 1, 2, 3};
  accelerated_silent_n_state sim(4, ranks, 1);
  EXPECT_TRUE(sim.stable());
  EXPECT_DOUBLE_EQ(sim.run_to_stabilization(), 0.0);
}

TEST(AcceleratedSilentNState, ResolvesSingleCollision) {
  // Two agents at rank 0, rank 1 free: exactly one bottleneck transition.
  std::vector<std::uint32_t> ranks{0, 0, 2, 3};
  accelerated_silent_n_state sim(4, ranks, 5);
  const double t = sim.run_to_stabilization();
  EXPECT_TRUE(sim.stable());
  EXPECT_GT(t, 0.0);
}

TEST(AcceleratedSilentNState, QuadraticScalingFromLowerBoundConfig) {
  // Mean stabilization time from the lower-bound configuration should grow
  // ~4x when n doubles.
  auto mean_time = [](std::uint32_t n) {
    silent_n_state_ssr p(n);
    const auto config = p.lower_bound_configuration();
    std::vector<std::uint32_t> ranks(n);
    for (std::uint32_t i = 0; i < n; ++i) ranks[i] = config[i].rank;
    const auto times = run_trials(30, n, [&](std::uint64_t seed) {
      accelerated_silent_n_state sim(n, ranks, seed);
      return sim.run_to_stabilization();
    });
    return summarize(times).mean;
  };
  const double t64 = mean_time(64);
  const double t128 = mean_time(128);
  const double ratio = t128 / t64;
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 6.5);
}

TEST(AcceleratedSilentNState, BoundedRunFollowsTheUnboundedTrajectory) {
  // A never-fired token and a cap past the end change nothing; a run
  // stabilizes within a cap only if it does so before the capped
  // interaction, as in the run core (pp/convergence.hpp).
  const std::uint32_t n = 40;
  const std::vector<std::uint32_t> ranks(n, 0);
  const cancel_token token;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    accelerated_silent_n_state unbounded(n, ranks, seed);
    const double time = unbounded.run_to_stabilization();
    const std::uint64_t end = unbounded.interactions();

    accelerated_silent_n_state polled(n, ranks, seed);
    EXPECT_TRUE(polled.run_until_stable(end + 1, &token));
    EXPECT_EQ(polled.parallel_time(), time);

    accelerated_silent_n_state capped(n, ranks, seed);
    EXPECT_FALSE(capped.run_until_stable(end - 1));
    EXPECT_EQ(capped.interactions(), end);  // the last skip is not cut
  }
}

TEST(AcceleratedSilentNState, RejectsOutOfRangeRanks) {
  std::vector<std::uint32_t> ranks{0, 9};
  EXPECT_THROW(accelerated_silent_n_state(2, ranks, 1), std::logic_error);
}

}  // namespace
}  // namespace ssr
