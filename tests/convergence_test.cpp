#include "pp/convergence.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "protocols/loose_stabilizing.hpp"
#include "protocols/silent_n_state.hpp"

namespace ssr {
namespace {

TEST(RankTracker, DetectsPermutation) {
  rank_tracker t(3);
  t.add(1);
  t.add(2);
  t.add(3);
  EXPECT_TRUE(t.correct());
}

TEST(RankTracker, DuplicateBreaksCorrectness) {
  rank_tracker t(3);
  t.add(1);
  t.add(2);
  t.add(2);
  EXPECT_FALSE(t.correct());
  t.update(2, 3);
  EXPECT_TRUE(t.correct());
}

TEST(RankTracker, ZeroMeansUnranked) {
  rank_tracker t(2);
  t.add(0);
  t.add(1);
  EXPECT_FALSE(t.correct());
  t.update(0, 2);
  EXPECT_TRUE(t.correct());
}

TEST(RankTracker, OutOfRangeRanksArePooled) {
  rank_tracker t(2);
  t.add(7);  // clamped to "no rank"
  t.add(1);
  EXPECT_FALSE(t.correct());
  t.update(7, 2);
  EXPECT_TRUE(t.correct());
}

TEST(RankTracker, NoOpUpdateKeepsState) {
  rank_tracker t(2);
  t.add(1);
  t.add(2);
  t.update(1, 1);
  EXPECT_TRUE(t.correct());
}

TEST(LeaderTracker, CountsLeaders) {
  leader_tracker t;
  EXPECT_EQ(t.count(), 0u);
  EXPECT_FALSE(t.correct());
  t.add(false);
  t.add(true);
  t.add(false);
  EXPECT_EQ(t.count(), 1u);
  EXPECT_TRUE(t.correct());
  t.add(true);
  EXPECT_EQ(t.count(), 2u);
  EXPECT_FALSE(t.correct());
}

TEST(LeaderTracker, UpdatesApplyBitFlips) {
  leader_tracker t;
  t.add(true);
  t.add(true);
  t.update(true, false);  // l,l -> l,f
  EXPECT_EQ(t.count(), 1u);
  EXPECT_TRUE(t.correct());
  t.update(true, false);  // the last leader lost
  EXPECT_EQ(t.count(), 0u);
  EXPECT_FALSE(t.correct());
  t.update(false, true);  // a timeout promotes a follower
  EXPECT_TRUE(t.correct());
}

TEST(LeaderTracker, NoOpUpdatesKeepTheCount) {
  leader_tracker t;
  t.add(true);
  t.add(false);
  t.update(true, true);
  t.update(false, false);
  EXPECT_EQ(t.count(), 1u);
  EXPECT_TRUE(t.correct());
}

TEST(LeaderTracker, MatchesLeaderCountAfterEveryInteraction) {
  // Fed the two pre-interaction leader bits, the tracker must equal a full
  // recount after every interaction of a run, changed or not.
  const loose_stabilizing_le p(40, 6);
  direct_engine<loose_stabilizing_le> engine(p, p.dead_configuration(), 17);
  leader_tracker t;
  for (const auto& s : engine.agents()) t.add(p.is_leader(s));
  bool pre_a = false, pre_b = false;
  std::uint64_t mismatches = 0, flips = 0;
  engine.run(
      200'000,
      [&](const agent_pair& pair) {
        pre_a = p.is_leader(engine.agents()[pair.initiator]);
        pre_b = p.is_leader(engine.agents()[pair.responder]);
      },
      [&](const agent_pair& pair, bool changed) {
        if (changed) {
          const std::uint64_t before = t.count();
          t.update(pre_a, p.is_leader(engine.agents()[pair.initiator]));
          t.update(pre_b, p.is_leader(engine.agents()[pair.responder]));
          flips += t.count() != before ? 1 : 0;
        }
        mismatches += t.count() != p.leader_count(engine.agents()) ? 1 : 0;
        return false;
      });
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(flips, 100u);  // a small timeout keeps re-electing
}

TEST(MeasureConvergence, LooseStopsAtTheFirstUniqueLeader) {
  // Leader-election protocols converge on the first entry into exactly one
  // leader: the run stops there, with the configuration holding one leader.
  const loose_stabilizing_le p(32, 20);
  std::vector<loose_stabilizing_le::agent_state> final_config;
  const convergence_result r =
      measure_convergence(p, p.dead_configuration(), 5, {}, &final_config);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(p.leader_count(final_config), 1u);
  EXPECT_DOUBLE_EQ(r.convergence_time,
                   static_cast<double>(r.interactions) / 32.0);

  // The same seed stepped by hand reaches its first unique leader at the
  // same interaction.
  direct_engine<loose_stabilizing_le> engine(p, p.dead_configuration(), 5);
  engine.run(
      r.interactions + 1, [](const agent_pair&) {},
      [&](const agent_pair&, bool) {
        return p.leader_count(engine.agents()) == 1;
      });
  EXPECT_EQ(engine.interactions(), r.interactions);
}

TEST(MeasureConvergence, BaselineFromAllZero) {
  silent_n_state_ssr protocol(8);
  std::vector<silent_n_state_ssr::agent_state> init(8);
  const convergence_result r = measure_convergence(protocol, init, 42);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.convergence_time, 0.0);
  EXPECT_EQ(r.correctness_losses, 0u);
}

TEST(MeasureConvergence, AlreadyCorrectConvergesImmediately) {
  silent_n_state_ssr protocol(8);
  std::vector<silent_n_state_ssr::agent_state> init(8);
  for (std::uint32_t i = 0; i < 8; ++i) init[i].rank = i;
  const convergence_result r = measure_convergence(protocol, init, 42);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.interactions, 0u);
}

TEST(MeasureConvergence, TimeCapFails) {
  silent_n_state_ssr protocol(16);
  std::vector<silent_n_state_ssr::agent_state> init(16);
  convergence_options opt;
  opt.max_parallel_time = 0.5;  // far below Theta(n^2)
  const convergence_result r = measure_convergence(protocol, init, 42, opt);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.interactions, 8u);  // 0.5 * 16
}

TEST(MeasureConvergence, ConfirmationWindowExtendsRun) {
  silent_n_state_ssr protocol(8);
  std::vector<silent_n_state_ssr::agent_state> init(8);
  convergence_options opt;
  opt.confirm_parallel_time = 10.0;
  const convergence_result r = measure_convergence(protocol, init, 7, opt);
  EXPECT_TRUE(r.converged);
  // The baseline is silent once correct, so the confirmation window adds
  // interactions but never a correctness loss.
  EXPECT_EQ(r.correctness_losses, 0u);
  EXPECT_GE(static_cast<double>(r.interactions),
            r.convergence_time * 8 + 10.0 * 8 - 1);
}

TEST(MeasureConvergence, FinalConfigurationIsReturned) {
  silent_n_state_ssr protocol(8);
  std::vector<silent_n_state_ssr::agent_state> init(8);
  std::vector<silent_n_state_ssr::agent_state> final_config;
  const convergence_result r =
      measure_convergence(protocol, init, 42, {}, &final_config);
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(final_config.size(), 8u);
  EXPECT_TRUE(is_valid_ranking(protocol, final_config));
}

TEST(MeasureConvergence, DeterministicForSameSeed) {
  silent_n_state_ssr protocol(12);
  std::vector<silent_n_state_ssr::agent_state> init(12);
  const convergence_result a = measure_convergence(protocol, init, 1234);
  const convergence_result b = measure_convergence(protocol, init, 1234);
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_DOUBLE_EQ(a.convergence_time, b.convergence_time);
}

// engine_kind::sharded names no engine: with_engine refuses it instead of
// running another engine in its place.
TEST(WithEngine, KindWithoutAnEngineThrows) {
  silent_n_state_ssr protocol(8);
  std::vector<silent_n_state_ssr::agent_state> init(8);
  EXPECT_THROW(with_engine(engine_kind::sharded, protocol, init, 1,
                           [](auto&) { return 0; }),
               std::invalid_argument);
}

}  // namespace
}  // namespace ssr
