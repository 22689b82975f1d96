// The direct engine's own contract (pp/engine.hpp), on the uniform
// scheduler: time accounting, size checks, determinism, stopping, and the
// silence probe.
#include "pp/engine.hpp"

#include <gtest/gtest.h>

#include "engine_steps.hpp"
#include "protocols/silent_n_state.hpp"

namespace ssr {
namespace {

std::vector<silent_n_state_ssr::agent_state> all_zero(std::uint32_t n) {
  return std::vector<silent_n_state_ssr::agent_state>(n);
}

TEST(Simulation, TracksInteractionsAndParallelTime) {
  silent_n_state_ssr protocol(10);
  direct_engine<silent_n_state_ssr> sim(protocol, all_zero(10), 1);
  run_for(sim, 25);
  EXPECT_EQ(sim.interactions(), 25u);
  EXPECT_DOUBLE_EQ(sim.parallel_time(), 2.5);
}

TEST(Simulation, RejectsMismatchedConfigurationSize) {
  silent_n_state_ssr protocol(10);
  EXPECT_THROW(direct_engine<silent_n_state_ssr>(protocol, all_zero(9), 1),
               std::logic_error);
}

TEST(Simulation, DeterministicForSameSeed) {
  silent_n_state_ssr protocol(8);
  direct_engine<silent_n_state_ssr> sim1(protocol, all_zero(8), 99);
  direct_engine<silent_n_state_ssr> sim2(protocol, all_zero(8), 99);
  run_for(sim1, 500);
  run_for(sim2, 500);
  for (std::uint32_t i = 0; i < 8; ++i)
    EXPECT_EQ(sim1.agents()[i].rank, sim2.agents()[i].rank);
}

TEST(Simulation, RunUntilStopsOnPredicate) {
  silent_n_state_ssr protocol(6);
  direct_engine<silent_n_state_ssr> sim(protocol, all_zero(6), 3);
  const bool stopped = run_until(
      sim,
      [](const auto& s) {
        return is_valid_ranking(s.protocol(), s.agents());
      },
      1'000'000);
  EXPECT_TRUE(stopped);
  EXPECT_TRUE(is_valid_ranking(sim.protocol(), sim.agents()));
}

TEST(Simulation, RunUntilHonorsInteractionCap) {
  silent_n_state_ssr protocol(6);
  direct_engine<silent_n_state_ssr> sim(protocol, all_zero(6), 3);
  const bool stopped = run_until(sim, [](const auto&) { return false; }, 100);
  EXPECT_FALSE(stopped);
  EXPECT_EQ(sim.interactions(), 100u);
}

TEST(Simulation, SilenceDetection) {
  silent_n_state_ssr protocol(5);
  // Distinct ranks: the unique silent configuration.
  std::vector<silent_n_state_ssr::agent_state> distinct(5);
  for (std::uint32_t i = 0; i < 5; ++i) distinct[i].rank = i;
  direct_engine<silent_n_state_ssr> silent_sim(protocol, distinct, 1);
  EXPECT_TRUE(is_silent_configuration(silent_sim));

  direct_engine<silent_n_state_ssr> loud_sim(protocol, all_zero(5), 1);
  EXPECT_FALSE(is_silent_configuration(loud_sim));
}

TEST(Simulation, FaultInjectionThroughMutableAgents) {
  silent_n_state_ssr protocol(5);
  std::vector<silent_n_state_ssr::agent_state> distinct(5);
  for (std::uint32_t i = 0; i < 5; ++i) distinct[i].rank = i;
  direct_engine<silent_n_state_ssr> sim(protocol, distinct, 1);
  sim.mutable_agents()[0].rank = 3;  // transient fault: duplicate rank 3
  EXPECT_FALSE(is_silent_configuration(sim));
}

TEST(ProtocolConcepts, ValidRankingPredicate) {
  silent_n_state_ssr protocol(4);
  std::vector<silent_n_state_ssr::agent_state> config(4);
  for (std::uint32_t i = 0; i < 4; ++i) config[i].rank = i;
  EXPECT_TRUE(is_valid_ranking(protocol, config));
  EXPECT_EQ(leader_count(protocol, config), 1u);

  config[2].rank = 1;  // duplicate
  EXPECT_FALSE(is_valid_ranking(protocol, config));
}

TEST(ProtocolConcepts, LeaderIsRankOne) {
  silent_n_state_ssr protocol(4);
  silent_n_state_ssr::agent_state s;
  s.rank = 0;  // rank_of maps to formal rank 1
  EXPECT_TRUE(is_leader(protocol, s));
  s.rank = 2;
  EXPECT_FALSE(is_leader(protocol, s));
}

}  // namespace
}  // namespace ssr
