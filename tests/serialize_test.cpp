#include "protocols/serialize.hpp"

#include <gtest/gtest.h>

#include "pp/scheduler.hpp"
#include "protocols/adversary.hpp"

namespace ssr {
namespace {

name_t nm(const std::string& bits) {
  name_t n;
  for (const char c : bits) n.append_bit(c == '1');
  return n;
}

TEST(Serialize, BaselineRoundTrip) {
  silent_n_state_ssr p(6);
  rng_t rng(1);
  const auto config = adversarial_configuration(p, rng);
  const std::string text = to_text(p, config);
  const auto parsed = config_from_text(p, text);
  EXPECT_EQ(parsed, config);
}

TEST(Serialize, OptimalRoundTripAllScenarios) {
  optimal_silent_ssr p(8);
  rng_t rng(2);
  for (const auto scenario : {optimal_silent_scenario::uniform_random,
                              optimal_silent_scenario::valid_ranking,
                              optimal_silent_scenario::all_dormant_followers,
                              optimal_silent_scenario::no_leader}) {
    const auto config = adversarial_configuration(p, scenario, rng);
    const auto parsed = config_from_text(p, to_text(p, config));
    EXPECT_EQ(parsed, config) << to_string(scenario);
  }
}

TEST(Serialize, SublinearRoundTripWithTrees) {
  sublinear_time_ssr p(6, 2u);
  rng_t rng(3);
  for (const auto scenario : {sublinear_scenario::uniform_random,
                              sublinear_scenario::planted_histories,
                              sublinear_scenario::mid_reset,
                              sublinear_scenario::valid_ranking}) {
    const auto config = adversarial_configuration(p, scenario, rng);
    const std::string text = to_text(p, config);
    const auto parsed = config_from_text(p, text);
    ASSERT_EQ(parsed.size(), config.size()) << to_string(scenario);
    for (std::size_t i = 0; i < config.size(); ++i) {
      EXPECT_EQ(parsed[i].role, config[i].role);
      EXPECT_EQ(parsed[i].name, config[i].name);
      EXPECT_EQ(parsed[i].rank, config[i].rank);
      EXPECT_EQ(parsed[i].roster, config[i].roster);
      EXPECT_EQ(parsed[i].reset, config[i].reset);
      EXPECT_EQ(tree_to_text(parsed[i].tree), tree_to_text(config[i].tree));
    }
  }
}

// A configuration whose agents share roster objects reads back with the
// same names in every roster, each agent holding its own object.
TEST(Serialize, SublinearSharedRostersRoundTrip) {
  const std::uint32_t n = 8;
  sublinear_time_ssr p(n, 1u);
  rng_t rng(5);
  auto agents = p.initial_configuration(rng);
  for (int step = 0; step < 300; ++step) {
    const agent_pair pair = sample_pair(rng, n);
    p.interact(agents[pair.initiator], agents[pair.responder], rng);
  }
  std::size_t sharing = 0;
  for (std::uint32_t i = 1; i < n; ++i)
    sharing += agents[i].roster.shares(agents[0].roster) ? 1 : 0;
  ASSERT_GT(sharing, 0u);
  const auto parsed = config_from_text(p, to_text(p, agents));
  ASSERT_EQ(parsed.size(), agents.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(parsed[i].roster.names(), agents[i].roster.names()) << i;
    EXPECT_FALSE(parsed[i].roster.shares(agents[i].roster)) << i;
  }
}

TEST(Serialize, LooseRoundTrip) {
  loose_stabilizing_le p(5, 9);
  std::vector<loose_stabilizing_le::agent_state> config(5);
  config[0] = {true, 9};
  config[1] = {false, 3};
  config[2] = {false, 0};
  config[3] = {true, 7};
  config[4] = {false, 9};
  const auto parsed = config_from_text(p, to_text(p, config));
  EXPECT_EQ(parsed, config);
}

TEST(Serialize, TreeRoundTripPreservesStructure) {
  history_tree t(nm("01"));
  history_tree partner(nm("10"));
  history_tree deep(nm("11"));
  partner.graft_partner(deep, 1, 7, 42);
  t.graft_partner(partner, 2, 3, 99);
  const std::string text = tree_to_text(t);
  const history_tree parsed = tree_from_text(text);
  EXPECT_EQ(tree_to_text(parsed), text);
  EXPECT_EQ(parsed.root_name(), nm("01"));
  EXPECT_EQ(parsed.node_count(), t.node_count());
  EXPECT_EQ(parsed.depth(), t.depth());
}

TEST(Serialize, EmptyNameUsesPlaceholder) {
  history_tree t{name_t{}};
  EXPECT_EQ(tree_to_text(t), "(e)");
  const history_tree parsed = tree_from_text("(e)");
  EXPECT_TRUE(parsed.root_name().empty());
}

// Behavioral round-trip: pausing a run mid-flight, serializing, reloading
// and continuing with the same scheduler stream must reproduce the original
// run exactly.  This catches any field the textual format forgets.
TEST(Serialize, SnapshotResumeReproducesExecution) {
  const std::uint32_t n = 10;
  optimal_silent_ssr p(n);
  rng_t scenario_rng(9);
  auto agents = adversarial_configuration(
      p, optimal_silent_scenario::uniform_random, scenario_rng);

  // Run half-way.
  rng_t sched_a(1234);
  for (int step = 0; step < 5000; ++step) {
    const agent_pair pair = sample_pair(sched_a, n);
    p.interact(agents[pair.initiator], agents[pair.responder], sched_a);
  }
  // Snapshot and reload.
  auto resumed = config_from_text(p, to_text(p, agents));
  ASSERT_EQ(resumed, agents);

  // Continue both copies under identical scheduler streams.
  rng_t sched_b(777), sched_c(777);
  for (int step = 0; step < 5000; ++step) {
    const agent_pair pb = sample_pair(sched_b, n);
    p.interact(agents[pb.initiator], agents[pb.responder], sched_b);
    const agent_pair pc = sample_pair(sched_c, n);
    p.interact(resumed[pc.initiator], resumed[pc.responder], sched_c);
  }
  EXPECT_EQ(resumed, agents);
}

TEST(Serialize, SublinearSnapshotResumeReproducesExecution) {
  const std::uint32_t n = 8;
  sublinear_time_ssr p(n, 2u);
  rng_t scenario_rng(11);
  auto agents = adversarial_configuration(
      p, sublinear_scenario::single_collision, scenario_rng);

  rng_t sched_a(4321);
  for (int step = 0; step < 400; ++step) {
    const agent_pair pair = sample_pair(sched_a, n);
    p.interact(agents[pair.initiator], agents[pair.responder], sched_a);
  }
  auto resumed = config_from_text(p, to_text(p, agents));

  rng_t sched_b(555), sched_c(555);
  for (int step = 0; step < 400; ++step) {
    const agent_pair pb = sample_pair(sched_b, n);
    p.interact(agents[pb.initiator], agents[pb.responder], sched_b);
    const agent_pair pc = sample_pair(sched_c, n);
    p.interact(resumed[pc.initiator], resumed[pc.responder], sched_c);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(resumed[i].role, agents[i].role) << i;
    EXPECT_EQ(resumed[i].name, agents[i].name) << i;
    EXPECT_EQ(resumed[i].rank, agents[i].rank) << i;
    EXPECT_EQ(resumed[i].roster, agents[i].roster) << i;
    EXPECT_EQ(tree_to_text(resumed[i].tree), tree_to_text(agents[i].tree))
        << i;
  }
}

TEST(Serialize, RejectsMalformedInput) {
  silent_n_state_ssr p(3);
  EXPECT_THROW(config_from_text(p, ""), std::invalid_argument);
  EXPECT_THROW(config_from_text(p, "bogus header\nrank=0\nrank=1\nrank=2\n"),
               std::invalid_argument);
  // Wrong protocol tag.
  EXPECT_THROW(config_from_text(
                   p, "ssr-config v1 protocol=optimal n=3\nrank=0\nrank=1\n"
                      "rank=2\n"),
               std::invalid_argument);
  // Wrong population size.
  EXPECT_THROW(config_from_text(
                   p, "ssr-config v1 protocol=baseline n=4\nrank=0\nrank=1\n"
                      "rank=2\n"),
               std::invalid_argument);
  // Out-of-range rank.
  EXPECT_THROW(config_from_text(
                   p, "ssr-config v1 protocol=baseline n=3\nrank=0\nrank=1\n"
                      "rank=9\n"),
               std::invalid_argument);
}

TEST(Serialize, RejectsMalformedTree) {
  EXPECT_THROW(tree_from_text(""), std::invalid_argument);
  EXPECT_THROW(tree_from_text("(01"), std::invalid_argument);
  EXPECT_THROW(tree_from_text("(01 (x 1 0 (10)))"), std::invalid_argument);
  EXPECT_THROW(tree_from_text("(01) junk"), std::invalid_argument);
}

TEST(Serialize, RejectsUnsortedRoster) {
  sublinear_time_ssr p(2, 1u);
  const std::string text =
      "ssr-config v1 protocol=sublinear n=2\n"
      "collecting name=01 rank=0 roster=10,01 tree=(01)\n"
      "collecting name=10 rank=0 roster=10 tree=(10)\n";
  EXPECT_THROW(config_from_text(p, text), std::invalid_argument);
}

}  // namespace
}  // namespace ssr
