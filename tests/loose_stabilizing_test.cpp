#include "protocols/loose_stabilizing.hpp"

#include <gtest/gtest.h>

#include "pp/scheduler.hpp"

namespace ssr {
namespace {

using state_t = loose_stabilizing_le::agent_state;

// Convenience runner: steps until the leader count matches `target` (or a
// cap), returns parallel time.
template <class Pred>
double run_until_leaders(const loose_stabilizing_le& p,
                         std::vector<state_t>& agents, rng_t& rng, Pred pred,
                         std::uint64_t max_interactions) {
  const std::uint32_t n = p.population_size();
  std::uint64_t steps = 0;
  while (steps < max_interactions && !pred(p.leader_count(agents))) {
    const agent_pair pair = sample_pair(rng, n);
    p.interact(agents[pair.initiator], agents[pair.responder], rng);
    ++steps;
  }
  return static_cast<double>(steps) / n;
}

TEST(LooseStabilizing, LeaderPinsOwnTimer) {
  loose_stabilizing_le p(4, 10);
  rng_t rng(1);
  state_t leader{true, 3};
  state_t follower{false, 7};
  p.interact(leader, follower, rng);
  EXPECT_EQ(leader.timer, 10u);
  EXPECT_EQ(follower.timer, 6u);  // max(3,7) - 1
}

TEST(LooseStabilizing, DuelDemotesResponder) {
  loose_stabilizing_le p(4, 10);
  rng_t rng(1);
  state_t a{true, 10};
  state_t b{true, 10};
  p.interact(a, b, rng);
  EXPECT_TRUE(a.leader);
  EXPECT_FALSE(b.leader);
}

TEST(LooseStabilizing, TimeoutPromotes) {
  loose_stabilizing_le p(4, 10);
  rng_t rng(1);
  state_t a{false, 1};
  state_t b{false, 0};
  p.interact(a, b, rng);
  // max(1,0) - 1 = 0: both time out and promote.
  EXPECT_TRUE(a.leader);
  EXPECT_TRUE(b.leader);
  EXPECT_EQ(a.timer, 10u);
}

TEST(LooseStabilizing, ConvergesFromDeadConfiguration) {
  const std::uint32_t n = 32;
  loose_stabilizing_le p(n, 40);
  auto agents = p.dead_configuration();
  rng_t rng(3);
  run_until_leaders(p, agents, rng,
                    [](std::size_t leaders) { return leaders == 1; },
                    100'000'000ull);
  EXPECT_EQ(p.leader_count(agents), 1u);
}

TEST(LooseStabilizing, ConvergesFromAllLeaders) {
  const std::uint32_t n = 32;
  loose_stabilizing_le p(n, 40);
  std::vector<state_t> agents(n, state_t{true, 40});
  rng_t rng(5);
  run_until_leaders(p, agents, rng,
                    [](std::size_t leaders) { return leaders == 1; },
                    100'000'000ull);
  EXPECT_EQ(p.leader_count(agents), 1u);
}

TEST(LooseStabilizing, LeaderCountNeverHitsZeroOnceElected) {
  const std::uint32_t n = 16;
  loose_stabilizing_le p(n, 12);
  auto agents = p.dead_configuration();
  rng_t rng(7);
  run_until_leaders(p, agents, rng,
                    [](std::size_t leaders) { return leaders >= 1; },
                    10'000'000ull);
  // A leader only disappears by losing a duel, which keeps the winner.
  for (int step = 0; step < 200000; ++step) {
    const agent_pair pair = sample_pair(rng, n);
    p.interact(agents[pair.initiator], agents[pair.responder], rng);
    if (step % 1000 == 0) {
      ASSERT_GE(p.leader_count(agents), 1u);
    }
  }
}

TEST(LooseStabilizing, HoldingTimeGrowsWithTimeout) {
  // The loose-stabilization trade: larger T holds the unique leader
  // (much) longer.  Measure mean time until the leader count leaves 1,
  // from a freshly converged configuration.
  const std::uint32_t n = 24;
  auto mean_holding = [&](std::uint32_t t_max) {
    loose_stabilizing_le p(n, t_max);
    double total = 0.0;
    const int trials = 10;
    for (int trial = 0; trial < trials; ++trial) {
      rng_t rng(100 + trial);
      auto agents = p.dead_configuration();
      run_until_leaders(p, agents, rng,
                        [](std::size_t leaders) { return leaders == 1; },
                        100'000'000ull);
      total += run_until_leaders(
          p, agents, rng,
          [](std::size_t leaders) { return leaders != 1; },
          /*cap=*/static_cast<std::uint64_t>(2'000'000));
    }
    return total / trials;
  };
  const double short_t = mean_holding(8);
  const double long_t = mean_holding(48);
  EXPECT_GT(long_t, 5.0 * short_t);
}

TEST(LooseStabilizing, StateCountIsLogarithmicNotLinear) {
  // 2(T+1) states with T = Theta(log n): far below Theorem 2.1's n-state
  // bound -- legal only because loose stabilization is weaker than
  // self-stabilization.
  EXPECT_EQ(loose_stabilizing_le::state_count(40), 82u);
  EXPECT_LT(loose_stabilizing_le::state_count(40), 1024u);
}

TEST(LooseStabilizing, RejectsBadParameters) {
  EXPECT_THROW(loose_stabilizing_le(1, 10), std::logic_error);
  EXPECT_THROW(loose_stabilizing_le(4, 0), std::logic_error);
}

}  // namespace
}  // namespace ssr
