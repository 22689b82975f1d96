// Transient-fault experiments: corrupt a stabilized execution mid-run and
// verify recovery.  This is the self-stabilization promise in its
// operational form -- the scenario motivating the paper's reliability story
// (Section 1, "Reliable leader election").
#include <gtest/gtest.h>

#include "engine_steps.hpp"
#include "pp/convergence.hpp"
#include "pp/engine.hpp"
#include "pp/random.hpp"
#include "protocols/adversary.hpp"
#include "protocols/optimal_silent.hpp"
#include "protocols/silent_n_state.hpp"
#include "protocols/sublinear.hpp"

namespace ssr {
namespace {

TEST(FaultInjection, BaselineRecoversFromRankCorruption) {
  const std::uint32_t n = 16;
  silent_n_state_ssr p(n);
  std::vector<silent_n_state_ssr::agent_state> config(n);
  for (std::uint32_t i = 0; i < n; ++i) config[i].rank = i;

  direct_engine<silent_n_state_ssr> sim(p, std::move(config), 21);
  rng_t faults(99);
  for (int round = 0; round < 3; ++round) {
    // Corrupt 5 agents' memories.
    for (int k = 0; k < 5; ++k) {
      const auto victim = uniform_below(faults, n);
      sim.mutable_agents()[victim].rank =
          static_cast<std::uint32_t>(uniform_below(faults, n));
    }
    const bool recovered = run_until(
        sim,
        [](const auto& s) {
          return is_valid_ranking(s.protocol(), s.agents());
        },
        sim.interactions() + 10'000'000ull);
    ASSERT_TRUE(recovered) << "round " << round;
  }
}

TEST(FaultInjection, OptimalSilentRecoversFromLeaderLoss) {
  const std::uint32_t n = 16;
  optimal_silent_ssr p(n);
  rng_t rng(5);
  auto config =
      adversarial_configuration(p, optimal_silent_scenario::valid_ranking, rng);

  direct_engine<optimal_silent_ssr> sim(p, std::move(config), 31);
  // Kill the leader: overwrite the rank-1 agent with a duplicate of rank 2.
  for (auto& s : sim.mutable_agents()) {
    if (s.rank == 1) {
      s.rank = 2;
      break;
    }
  }
  EXPECT_FALSE(is_valid_ranking(p, sim.agents()));
  const bool recovered = run_until(
      sim,
      [](const auto& s) {
        return is_valid_ranking(s.protocol(), s.agents());
      },
      50'000'000ull);
  ASSERT_TRUE(recovered);
  EXPECT_EQ(leader_count(p, sim.agents()), 1u);
}

TEST(FaultInjection, OptimalSilentRecoversFromRepeatedBursts) {
  const std::uint32_t n = 12;
  optimal_silent_ssr p(n);
  rng_t scenario_rng(6);
  auto config = adversarial_configuration(
      p, optimal_silent_scenario::valid_ranking, scenario_rng);
  direct_engine<optimal_silent_ssr> sim(p, std::move(config), 41);

  rng_t faults(123);
  for (int burst = 0; burst < 3; ++burst) {
    for (int k = 0; k < 4; ++k) {
      auto& victim = sim.mutable_agents()[uniform_below(faults, n)];
      victim = adversarial_configuration(
          p, optimal_silent_scenario::uniform_random, faults)[0];
    }
    const bool recovered = run_until(
        sim,
        [](const auto& s) {
          return is_valid_ranking(s.protocol(), s.agents());
        },
        sim.interactions() + 50'000'000ull);
    ASSERT_TRUE(recovered) << "burst " << burst;
  }
}

TEST(FaultInjection, SublinearRecoversFromNameDuplication) {
  const std::uint32_t n = 8;
  sublinear_time_ssr p(n, 1u);
  rng_t rng(7);
  auto config =
      adversarial_configuration(p, sublinear_scenario::valid_ranking, rng);
  direct_engine<sublinear_time_ssr> sim(p, std::move(config), 51);
  // Duplicate agent 0's identity into agent 1 (name, roster, rank).
  sim.mutable_agents()[1] = sim.agents()[0];
  EXPECT_FALSE(is_valid_ranking(p, sim.agents()));
  const bool recovered = run_until(
      sim,
      [](const auto& s) {
        return is_valid_ranking(s.protocol(), s.agents());
      },
      20'000'000ull);
  ASSERT_TRUE(recovered);
}

}  // namespace
}  // namespace ssr
