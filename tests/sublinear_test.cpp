#include "protocols/sublinear.hpp"

#include <gtest/gtest.h>

#include <set>

#include "pp/convergence.hpp"
#include "engine_steps.hpp"
#include "pp/engine.hpp"
#include "pp/scheduler.hpp"
#include "protocols/adversary.hpp"

namespace ssr {
namespace {

using role_t = sublinear_time_ssr::role_t;
using state_t = sublinear_time_ssr::agent_state;

name_t nm(const std::string& bits) {
  name_t n;
  for (const char c : bits) n.append_bit(c == '1');
  return n;
}

state_t collecting(const name_t& name) {
  state_t s;
  s.role = role_t::collecting;
  s.name = name;
  s.roster = roster_t{name};
  s.tree.reset(name);
  return s;
}

TEST(SublinearTuning, DefaultsAreSane) {
  const auto t = sublinear_time_ssr::tuning::defaults(64, 2);
  EXPECT_EQ(t.h, 2u);
  EXPECT_EQ(t.name_bits, 18u);  // 3 * log2(64)
  EXPECT_GE(t.d_max, t.name_bits);
  EXPECT_EQ(t.s_max, 64u * 64u);
  EXPECT_GT(t.t_h, 0u);
}

TEST(SublinearTuning, TimerShrinksWithH) {
  // T_H = Theta(H n^{1/(H+1)}) decreases sharply from H=1 to H=3 at n=4096.
  const auto t1 = sublinear_time_ssr::tuning::defaults(4096, 1);
  const auto t3 = sublinear_time_ssr::tuning::defaults(4096, 3);
  EXPECT_GT(t1.t_h, t3.t_h);
}

TEST(Sublinear, RosterUnionHelpers) {
  const std::vector<name_t> a{nm("00"), nm("01")};
  const std::vector<name_t> b{nm("01"), nm("11")};
  EXPECT_EQ(union_size(a, b), 3u);
  const auto u = roster_union(a, b);
  ASSERT_EQ(u.size(), 3u);
  EXPECT_EQ(u[0], nm("00"));
  EXPECT_EQ(u[1], nm("01"));
  EXPECT_EQ(u[2], nm("11"));
  EXPECT_EQ(union_size(a, a), 2u);
  EXPECT_EQ(union_size({}, b), 2u);
}

TEST(Sublinear, RosterMergeAndRankAssignment) {
  sublinear_time_ssr p(2, 1u);
  rng_t rng(1);
  state_t a = collecting(nm("000000"));
  state_t b = collecting(nm("000011"));
  EXPECT_TRUE(p.interact(a, b, rng));
  // n = 2: rosters are complete after one merge, ranks assigned by
  // lexicographic order.
  ASSERT_EQ(a.roster.size(), 2u);
  EXPECT_EQ(p.rank_of(a), 1u);
  EXPECT_EQ(p.rank_of(b), 2u);
}

TEST(Sublinear, DirectNameEqualityTriggersReset) {
  sublinear_time_ssr p(4, 1u);
  rng_t rng(1);
  state_t a = collecting(nm("0101"));
  state_t b = collecting(nm("0101"));
  EXPECT_TRUE(p.interact(a, b, rng));
  EXPECT_EQ(a.role, role_t::resetting);
  EXPECT_EQ(b.role, role_t::resetting);
  EXPECT_EQ(a.reset.resetcount, p.params().r_max);
}

TEST(Sublinear, GhostNamesTriggerReset) {
  const std::uint32_t n = 3;
  sublinear_time_ssr p(n, 1u);
  rng_t rng(1);
  state_t a = collecting(nm("0000"));
  state_t b = collecting(nm("0011"));
  // Plant ghosts: a's roster claims two more names.
  a.roster = {nm("0000"), nm("0101"), nm("0110")};
  // Union would have 4 > n names.
  EXPECT_TRUE(p.interact(a, b, rng));
  EXPECT_EQ(a.role, role_t::resetting);
  EXPECT_EQ(b.role, role_t::resetting);
}

// Agents holding one roster object never see each other's updates: a merge
// or a reset gives the agent another object, never new names in the shared
// one.
TEST(Sublinear, SharedRosterIsNeverMutated) {
  sublinear_time_ssr p(4, 1u);
  rng_t rng(1);
  state_t a = collecting(nm("000000"));
  state_t b = collecting(nm("000011"));
  p.interact(a, b, rng);
  ASSERT_TRUE(a.roster.shares(b.roster));
  const std::vector<name_t> shared{nm("000000"), nm("000011")};
  ASSERT_EQ(b.roster.names(), shared);

  state_t c = collecting(nm("110000"));
  p.interact(a, c, rng);  // a merges with c
  EXPECT_EQ(a.roster.size(), 3u);
  EXPECT_EQ(b.roster.names(), shared);

  state_t twin = collecting(nm("000000"));
  p.interact(a, twin, rng);  // equal names: a resets
  ASSERT_EQ(a.role, role_t::resetting);
  EXPECT_TRUE(a.roster.empty());
  EXPECT_EQ(b.roster.names(), shared);
  EXPECT_EQ(c.roster.size(), 3u);
}

// Equal rosters held in two objects end up sharing one, so later merges of
// the pair cost a pointer compare.
TEST(Sublinear, EqualRostersShareOneObject) {
  sublinear_time_ssr p(4, 1u);
  rng_t rng(1);
  state_t a = collecting(nm("000000"));
  state_t b = collecting(nm("000011"));
  a.roster = {nm("000000"), nm("000011")};
  b.roster = {nm("000000"), nm("000011")};
  ASSERT_FALSE(a.roster.shares(b.roster));
  EXPECT_TRUE(p.interact(a, b, rng));  // the trees changed, not the rosters
  EXPECT_TRUE(a.roster.shares(b.roster));
  EXPECT_EQ(a.roster.size(), 2u);
}

TEST(Sublinear, MissingOwnNameTriggersReset) {
  sublinear_time_ssr p(4, 1u);
  rng_t rng(1);
  state_t a = collecting(nm("0000"));
  a.roster = {nm("1111")};  // corrupt: own name absent
  state_t b = collecting(nm("0011"));
  EXPECT_TRUE(p.interact(a, b, rng));
  EXPECT_EQ(a.role, role_t::resetting);
}

TEST(Sublinear, ResettingAgentsClearNamesWhilePropagating) {
  sublinear_time_ssr p(4, 1u);
  rng_t rng(1);
  state_t a = collecting(nm("0101"));
  state_t b = collecting(nm("0101"));
  p.interact(a, b, rng);  // collision -> both triggered
  ASSERT_EQ(a.role, role_t::resetting);
  p.interact(a, b, rng);  // propagating: names cleared (lines 12-13)
  EXPECT_TRUE(a.name.empty());
  EXPECT_TRUE(b.name.empty());
}

TEST(Sublinear, DormantAgentsRegenerateNamesBitByBit) {
  sublinear_time_ssr p(4, 1u);
  rng_t rng(1);
  state_t a, b;
  a.role = b.role = role_t::resetting;
  a.reset.resetcount = b.reset.resetcount = 0;
  a.reset.delaytimer = b.reset.delaytimer = p.params().d_max;
  p.interact(a, b, rng);
  EXPECT_EQ(a.name.length(), 1u);
  EXPECT_EQ(b.name.length(), 1u);
}

TEST(Sublinear, ResetRestartsCollectionFromOwnName) {
  sublinear_time_ssr p(4, 1u);
  rng_t rng(1);
  // A dormant agent with a full name awakening against a computing agent.
  state_t dormant;
  dormant.role = role_t::resetting;
  dormant.reset.resetcount = 0;
  dormant.reset.delaytimer = 2;
  dormant.name = nm("010101");
  state_t awake = collecting(nm("111000"));
  p.interact(dormant, awake, rng);
  EXPECT_EQ(dormant.role, role_t::collecting);
  ASSERT_EQ(dormant.roster.size(), 1u);
  EXPECT_EQ(dormant.roster[0], nm("010101"));
  EXPECT_EQ(dormant.tree.root_name(), nm("010101"));
  EXPECT_EQ(p.rank_of(dormant), 0u);
}

TEST(Sublinear, TreesRecordInteractions) {
  sublinear_time_ssr p(4, 2u);
  rng_t rng(1);
  state_t a = collecting(nm("000000"));
  state_t b = collecting(nm("000011"));
  p.interact(a, b, rng);
  ASSERT_EQ(a.tree.root().edges.size(), 1u);
  ASSERT_EQ(b.tree.root().edges.size(), 1u);
  EXPECT_EQ(a.tree.root().edges[0].child.name, b.name);
  // Shared sync value on both sides (Protocol 7 line 5).
  EXPECT_EQ(a.tree.root().edges[0].sync, b.tree.root().edges[0].sync);
}

TEST(Sublinear, IndirectCollisionDetectedThroughWitness) {
  // H = 1 dictionary scheme: witness w meets real agent x, then meets an
  // impostor x' with the same name but no matching sync -> collision.
  const std::uint32_t n = 8;
  sublinear_time_ssr p(n, 1u);
  rng_t rng(7);
  state_t x = collecting(nm("000111000"));
  state_t x2 = collecting(nm("000111000"));  // impostor: same name
  state_t w = collecting(nm("111000111"));
  ASSERT_TRUE(p.interact(w, x, rng));  // w records x with some sync
  // With S_max = n^2 = 64, the chance the impostor's (absent) record
  // matches is zero: x2 has no record of w at all, and w's path ending at
  // the shared name finds no consistent reversed suffix in x2's tree.
  EXPECT_TRUE(p.name_collision_detected(w, x2));
  EXPECT_FALSE(p.name_collision_detected(w, x));
}

TEST(Sublinear, ConvergesFromCleanStart) {
  const std::uint32_t n = 8;
  for (const std::uint32_t h : {0u, 1u, 2u, 3u}) {
    sublinear_time_ssr p(n, h);
    rng_t rng(h + 1);
    auto init = p.initial_configuration(rng);
    std::vector<state_t> final_config;
    convergence_options opt;
    opt.max_parallel_time = 1e5;
    opt.confirm_parallel_time = 50.0;
    const auto r =
        measure_convergence(p, std::move(init), 17 + h, opt, &final_config);
    ASSERT_TRUE(r.converged) << "h=" << h;
    EXPECT_TRUE(is_valid_ranking(p, final_config)) << "h=" << h;
    EXPECT_EQ(leader_count(p, final_config), 1u) << "h=" << h;
  }
}

TEST(Sublinear, AllSameNameRecovers) {
  const std::uint32_t n = 6;
  sublinear_time_ssr p(n, 1u);
  rng_t rng(3);
  auto init =
      adversarial_configuration(p, sublinear_scenario::all_same_name, rng);
  std::vector<state_t> final_config;
  convergence_options opt;
  opt.max_parallel_time = 1e5;
  opt.confirm_parallel_time = 50.0;
  const auto r = measure_convergence(p, std::move(init), 23, opt,
                                     &final_config);
  ASSERT_TRUE(r.converged);
  EXPECT_TRUE(is_valid_ranking(p, final_config));
  // All names must now be distinct.
  std::set<name_t> names;
  for (const auto& s : final_config) names.insert(s.name);
  EXPECT_EQ(names.size(), n);
}

// Safety: from a clean configuration with unique names, no false-positive
// collision may ever be declared (the stabilized ranking must be stable).
TEST(Sublinear, NoFalsePositiveFromCleanConfiguration) {
  const std::uint32_t n = 8;
  for (const std::uint32_t h : {1u, 2u, 3u}) {
    sublinear_time_ssr p(n, h);
    rng_t rng(41 * (h + 1));
    auto init = adversarial_configuration(
        p, sublinear_scenario::valid_ranking, rng);
    direct_engine<sublinear_time_ssr> sim(p, std::move(init), 91 + h);
    // Long run: any reset would destroy the ranking.
    run_for(sim, 20000);
    EXPECT_TRUE(is_valid_ranking(sim.protocol(), sim.agents())) << "h=" << h;
    for (const auto& s : sim.agents())
      EXPECT_EQ(s.role, role_t::collecting) << "h=" << h;
  }
}

TEST(Sublinear, TreeInvariantsHoldDuringExecution) {
  const std::uint32_t n = 8;
  const std::uint32_t h = 2;
  sublinear_time_ssr p(n, h);
  rng_t rng(5);
  auto init = p.initial_configuration(rng);
  direct_engine<sublinear_time_ssr> sim(p, std::move(init), 55);
  // Checked after interactions 1, 501, ..., 2501.
  for (std::uint64_t checked_at = 1; checked_at < 3000; checked_at += 500) {
    run_for(sim, checked_at - sim.interactions());
    for (const auto& s : sim.agents()) {
      if (s.role != role_t::collecting) continue;
      EXPECT_LE(s.tree.depth(), h);
      EXPECT_TRUE(s.tree.simply_labelled());
      EXPECT_LE(s.roster.size(), static_cast<std::size_t>(n));
    }
  }
}

// Section 5.2's headline: indirect detection through witnesses beats
// waiting for the colliding pair to meet.  From single_collision (the only
// error signal is the duplicated name), H = 1 must detect collisions much
// faster than H = 0 on average.
TEST(Sublinear, IndirectDetectionBeatsDirect) {
  const std::uint32_t n = 32;
  auto mean_detection = [&](std::uint32_t h) {
    double total = 0.0;
    const int trials = 15;
    for (int trial = 0; trial < trials; ++trial) {
      sublinear_time_ssr p(n, h);
      rng_t rng(derive_seed(777 + h, trial));
      auto agents = adversarial_configuration(
          p, sublinear_scenario::single_collision, rng);
      rng_t sched(derive_seed(888 + h, trial));
      std::uint64_t steps = 0;
      auto any_resetting = [&] {
        for (const auto& s : agents)
          if (s.role == sublinear_time_ssr::role_t::resetting) return true;
        return false;
      };
      while (!any_resetting()) {
        const agent_pair pair = sample_pair(sched, n);
        p.interact(agents[pair.initiator], agents[pair.responder], sched);
        ++steps;
      }
      total += static_cast<double>(steps) / n;
    }
    return total / trials;
  };
  const double direct = mean_detection(0);
  const double indirect = mean_detection(1);
  EXPECT_GT(direct, 2.0 * indirect)
      << "H=0: " << direct << ", H=1: " << indirect;
}

TEST(Sublinear, RejectsBadTuning) {
  sublinear_time_ssr::tuning t{};  // s_max too small
  EXPECT_THROW(sublinear_time_ssr(8, t), std::logic_error);
}

}  // namespace
}  // namespace ssr
