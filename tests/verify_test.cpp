// Exhaustive machine-checks of the self-stabilization claims at small n:
// terminal-SCC analysis over the *entire* configuration space (see
// verify/reachability.hpp).  These are proofs, not samples -- every
// configuration is explored.
#include "verify/reachability.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "pp/graph.hpp"
#include "protocols/initialized.hpp"
#include "protocols/optimal_silent.hpp"
#include "protocols/silent_n_state.hpp"
#include "verification_inputs.hpp"
#include "verify/graph_reachability.hpp"
#include "verify/model_check/config_space.hpp"

namespace ssr {
namespace {

// ------------------------------------------------------------- Protocol 1

class BaselineVerification : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(BaselineVerification, IsSelfStabilizingAndSilent) {
  const std::uint32_t n = GetParam();
  silent_n_state_ssr p(n);
  const auto result = verify_self_stabilization(p, p.all_states());
  EXPECT_TRUE(result.self_stabilizing) << "n=" << n;
  EXPECT_TRUE(result.silent) << "n=" << n;
  // The unique stable configuration {0, ..., n-1} is the only terminal
  // component.
  EXPECT_EQ(result.terminal_components, 1u) << "n=" << n;
  EXPECT_GT(result.configurations, 1u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BaselineVerification,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u));

// A mutated baseline that bumps ranks by 2 preserves rank parity, so from
// an all-even configuration the odd ranks are unreachable: the mutant is
// NOT self-stabilizing, and the verifier must find the counterexample.
TEST(BaselineVerification, MutantSkippingRanksIsRejected) {
  const std::uint32_t n = 4;
  rank_skipping_baseline p{n};
  const auto states = p.all_states();
  const auto result = verify_self_stabilization(p, states);
  EXPECT_FALSE(result.self_stabilizing);
  ASSERT_TRUE(result.counterexample.has_value());
}

// A mutant that never wraps (saturates at n-1) deadlocks all colliding
// agents in the top rank.
TEST(BaselineVerification, MutantWithoutWrapIsRejected) {
  struct saturating_baseline {
    using agent_state = silent_n_state_ssr::agent_state;
    std::uint32_t n;
    std::uint32_t population_size() const { return n; }
    bool interact(agent_state& a, agent_state& b, rng_t&) const {
      if (a.rank != b.rank || b.rank + 1 >= n) return false;  // BUG: no wrap
      b.rank = b.rank + 1;
      return true;
    }
    std::uint32_t rank_of(const agent_state& s) const { return s.rank + 1; }
  };
  const std::uint32_t n = 4;
  saturating_baseline p{n};
  std::vector<saturating_baseline::agent_state> states(n);
  for (std::uint32_t r = 0; r < n; ++r) states[r].rank = r;
  const auto result = verify_self_stabilization(p, states);
  EXPECT_FALSE(result.self_stabilizing);
}

// --------------------------------------------------- initialized contrast

TEST(InitializedVerification, IsNotSelfStabilizing) {
  // The 2-state (l,l) -> (l,f) protocol: the all-followers configuration is
  // an incorrect terminal component (Section 1's motivating failure).
  const std::uint32_t n = 4;
  initialized_leader_election p(n);
  std::vector<initialized_leader_election::agent_state> states(2);
  states[0].leader = false;
  states[1].leader = true;
  const auto result = verify_self_stabilization(p, states);
  EXPECT_FALSE(result.self_stabilizing);
  ASSERT_TRUE(result.counterexample.has_value());
  // The counterexample is the all-followers configuration: every index
  // refers to the follower state.
  for (const std::size_t s : *result.counterexample) EXPECT_EQ(s, 0u);
}

// ----------------------------------------------------------- Protocols 3+4

class OptimalSilentVerification
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(OptimalSilentVerification, IsSelfStabilizingAndSilent) {
  const std::uint32_t n = GetParam();
  optimal_silent_ssr p(n, verification_tuning(n));
  const auto result = verify_self_stabilization(p, p.all_states());
  EXPECT_TRUE(result.self_stabilizing) << "n=" << n;
  EXPECT_TRUE(result.silent) << "n=" << n;
  // Terminal components are exactly the correct silent configurations:
  // each is a ranking 1..n decorated with children counters that can no
  // longer change.
  EXPECT_GE(result.terminal_components, 1u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, OptimalSilentVerification,
                         ::testing::Values(2u, 3u, 4u));

TEST(OptimalSilentVerification, InventoryMatchesStateCount) {
  const std::uint32_t n = 3;
  const auto t = verification_tuning(n);
  optimal_silent_ssr p(n, t);
  EXPECT_EQ(p.all_states().size(), optimal_silent_ssr::state_count(n, t));
}

// DESIGN.md deviation #1, machine-checked: under the paper's literal "< n"
// recruiting guard rank n is never assigned, so no correct configuration is
// reachable at all and the verifier rejects the protocol; with our "<= n"
// guard (the prose semantics) it verifies.
TEST(OptimalSilentVerification, PaperLiteralGuardMutantIsRejected) {
  struct literal_guard_protocol {
    using agent_state = optimal_silent_ssr::agent_state;
    using role_t = optimal_silent_ssr::role_t;
    optimal_silent_ssr inner;
    std::uint32_t population_size() const { return inner.population_size(); }
    std::uint32_t rank_of(const agent_state& s) const {
      return inner.rank_of(s);
    }
    bool interact(agent_state& a, agent_state& b, rng_t& rng) const {
      // Run the real protocol but veto any recruitment that assigns the
      // top rank -- exactly what the literal "2 rank + children < n" guard
      // does differently from ours.
      const agent_state a_before = a;
      const agent_state b_before = b;
      const bool changed = inner.interact(a, b, rng);
      const std::uint32_t n = inner.population_size();
      const bool a_recruited = a_before.role == role_t::unsettled &&
                               a.role == role_t::settled && a.rank == n;
      const bool b_recruited = b_before.role == role_t::unsettled &&
                               b.role == role_t::settled && b.rank == n;
      if (a_recruited || b_recruited) {
        a = a_before;
        b = b_before;
        return false;
      }
      return changed;
    }
  };
  const std::uint32_t n = 3;
  literal_guard_protocol p{optimal_silent_ssr(n, verification_tuning(n))};
  const auto states = p.inner.all_states();
  const auto result = verify_self_stabilization(p, states);
  EXPECT_FALSE(result.self_stabilizing);
}

// ------------------------------------------------ transition-table closure

// Every consumer of the shared transition table (pp/transition_table.hpp)
// rejects a protocol whose transitions leave its declared inventory, with
// the table's one message.
TEST(TransitionTable, EveryConsumerRejectsAnEscape) {
  const std::uint32_t n = 3;
  const escaping_baseline p{n};
  const auto states = p.all_states();
  const auto thrown = [](const auto& call) -> std::string {
    try {
      call();
    } catch (const std::logic_error& e) {
      return e.what();
    }
    return "nothing thrown";
  };
  const std::string escape = "state outside the declared state inventory";
  EXPECT_EQ(thrown([&] {
              verify::build_config_graph<escaping_baseline>(
                  p, states, [](const auto&) { return true; });
            }),
            escape);
  EXPECT_EQ(thrown([&] { verify_self_stabilization(p, states); }), escape);
  EXPECT_EQ(thrown([&] {
              verify_on_graph(p, interaction_graph::complete(n), states);
            }),
            escape);
}

}  // namespace
}  // namespace ssr
