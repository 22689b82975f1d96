#include "protocols/optimal_silent.hpp"

#include <gtest/gtest.h>

#include "pp/convergence.hpp"
#include "pp/engine.hpp"
#include "protocols/adversary.hpp"

namespace ssr {
namespace {

using role_t = optimal_silent_ssr::role_t;
using state_t = optimal_silent_ssr::agent_state;

state_t settled(std::uint32_t rank, std::uint8_t children = 0) {
  state_t s;
  s.role = role_t::settled;
  s.rank = rank;
  s.children = children;
  return s;
}

state_t unsettled(std::uint32_t errorcount) {
  state_t s;
  s.role = role_t::unsettled;
  s.errorcount = errorcount;
  return s;
}

TEST(OptimalSilent, RankCollisionTriggersReset) {
  optimal_silent_ssr p(8);
  rng_t rng(1);
  state_t a = settled(3);
  state_t b = settled(3);
  EXPECT_TRUE(p.interact(a, b, rng));
  EXPECT_EQ(a.role, role_t::resetting);
  EXPECT_EQ(b.role, role_t::resetting);
  EXPECT_EQ(a.reset.resetcount, p.params().r_max);
  EXPECT_TRUE(a.leader);
  EXPECT_TRUE(b.leader);
}

TEST(OptimalSilent, DistinctSettledRanksAreNull) {
  optimal_silent_ssr p(8);
  rng_t rng(1);
  state_t a = settled(3, 2);
  state_t b = settled(4, 2);
  EXPECT_FALSE(p.interact(a, b, rng));
  EXPECT_EQ(a.rank, 3u);
  EXPECT_EQ(b.rank, 4u);
}

TEST(OptimalSilent, RecruitmentAssignsBinaryTreeChildRanks) {
  optimal_silent_ssr p(12);
  rng_t rng(1);
  // Rank 3 with no children recruits child rank 6, then 7 (Figure 1).
  state_t parent = settled(3, 0);
  state_t child1 = unsettled(100);
  EXPECT_TRUE(p.interact(parent, child1, rng));
  EXPECT_EQ(child1.role, role_t::settled);
  EXPECT_EQ(child1.rank, 6u);
  EXPECT_EQ(parent.children, 1u);

  state_t child2 = unsettled(100);
  EXPECT_TRUE(p.interact(child2, parent, rng));  // order-independent
  EXPECT_EQ(child2.rank, 7u);
  EXPECT_EQ(parent.children, 2u);

  // A full parent recruits no more.
  state_t extra = unsettled(100);
  p.interact(parent, extra, rng);
  EXPECT_EQ(extra.role, role_t::unsettled);
}

// DESIGN.md deviation #1: rank n must be assignable (the paper's literal
// "< n" guard would leave the last agent Unsettled forever).
TEST(OptimalSilent, RankNIsAssignable) {
  const std::uint32_t n = 12;
  optimal_silent_ssr p(n);
  rng_t rng(1);
  state_t parent = settled(6, 0);  // children of 6 are 12 (=n) and 13 (>n)
  state_t child = unsettled(100);
  EXPECT_TRUE(p.interact(parent, child, rng));
  EXPECT_EQ(child.rank, 12u);
  EXPECT_EQ(parent.children, 1u);

  state_t another = unsettled(100);
  p.interact(parent, another, rng);
  EXPECT_EQ(another.role, role_t::unsettled);  // 13 > n: never assigned
}

TEST(OptimalSilent, LeafRanksRecruitNothing) {
  const std::uint32_t n = 8;
  optimal_silent_ssr p(n);
  rng_t rng(1);
  state_t leaf = settled(5, 0);  // children 10, 11 > 8
  state_t u = unsettled(100);
  EXPECT_TRUE(p.interact(leaf, u, rng));  // errorcount still decremented
  EXPECT_EQ(u.role, role_t::unsettled);
  EXPECT_EQ(u.errorcount, 99u);
}

TEST(OptimalSilent, UnsettledPatienceExpiryTriggersReset) {
  optimal_silent_ssr p(8);
  rng_t rng(1);
  state_t a = unsettled(1);
  state_t b = unsettled(50);
  EXPECT_TRUE(p.interact(a, b, rng));
  // a's errorcount hit 0 -> both agents reset (Protocol 3 lines 17-19).
  EXPECT_EQ(a.role, role_t::resetting);
  EXPECT_EQ(b.role, role_t::resetting);
}

TEST(OptimalSilent, SlowLeaderElectionDuel) {
  optimal_silent_ssr p(8);
  rng_t rng(1);
  state_t a, b;
  a.role = b.role = role_t::resetting;
  a.leader = b.leader = true;
  a.reset.resetcount = b.reset.resetcount = 5;
  p.interact(a, b, rng);
  // L,L -> L,F: exactly one leader remains.
  EXPECT_NE(a.leader, b.leader);
}

TEST(OptimalSilent, ResetRoutineSplitsLeaderAndFollowers) {
  optimal_silent_ssr p(8);
  rng_t rng(1);
  // A dormant leader meeting a computing agent awakens Settled rank 1.
  state_t leader;
  leader.role = role_t::resetting;
  leader.leader = true;
  leader.reset.resetcount = 0;
  leader.reset.delaytimer = 1;
  state_t follower;
  follower.role = role_t::resetting;
  follower.leader = false;
  follower.reset.resetcount = 0;
  follower.reset.delaytimer = 1;
  p.interact(leader, follower, rng);
  EXPECT_EQ(leader.role, role_t::settled);
  EXPECT_EQ(leader.rank, 1u);
  EXPECT_EQ(follower.role, role_t::unsettled);
  EXPECT_EQ(follower.errorcount, p.params().e_max);
}

TEST(OptimalSilent, ConvergesFromCleanStart) {
  const std::uint32_t n = 32;
  optimal_silent_ssr p(n);
  std::vector<state_t> final_config;
  convergence_options opt;
  opt.max_parallel_time = 1e6;
  const auto r =
      measure_convergence(p, p.initial_configuration(), 7, opt, &final_config);
  ASSERT_TRUE(r.converged);
  EXPECT_TRUE(is_valid_ranking(p, final_config));
  EXPECT_EQ(leader_count(p, final_config), 1u);
}

TEST(OptimalSilent, CorrectConfigurationIsSilent) {
  const std::uint32_t n = 16;
  optimal_silent_ssr p(n);
  rng_t rng(3);
  const auto config = adversarial_configuration(
      p, optimal_silent_scenario::valid_ranking, rng);
  ASSERT_TRUE(is_valid_ranking(p, config));
  direct_engine<optimal_silent_ssr> sim(p, config, 1);
  EXPECT_TRUE(is_silent_configuration(sim));
}

TEST(OptimalSilent, StateCountIsLinear) {
  const auto t16 = optimal_silent_ssr::tuning::defaults(16);
  const auto t32 = optimal_silent_ssr::tuning::defaults(32);
  const auto s16 = optimal_silent_ssr::state_count(16, t16);
  const auto s32 = optimal_silent_ssr::state_count(32, t32);
  EXPECT_GT(s16, 16u);
  // O(n): doubling n at most ~doubles the state count (log terms aside).
  EXPECT_LT(static_cast<double>(s32) / static_cast<double>(s16), 2.5);
}

TEST(OptimalSilent, RejectsBadTuning) {
  optimal_silent_ssr::tuning t{};  // all zero
  EXPECT_THROW(optimal_silent_ssr(8, t), std::logic_error);
}

}  // namespace
}  // namespace ssr
