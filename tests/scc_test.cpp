// Direct unit tests for the shared SCC kernel (verify/scc.hpp) on
// hand-built digraphs, plus the two exhaustive verifiers that reduce to it
// (verify/reachability.hpp over multisets, verify/graph_reachability.hpp
// over position-aware tuples) on edge-case inputs.  The kernel's contract
// -- component ids in reverse topological order, self-loops never
// disqualifying terminality -- is what the model checker's absorption
// solver builds on, so it is pinned here independently of any protocol.
#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>
#include <vector>

#include "pp/graph.hpp"
#include "protocols/initialized.hpp"
#include "protocols/optimal_silent.hpp"
#include "protocols/silent_n_state.hpp"
#include "verification_inputs.hpp"
#include "verify/graph_reachability.hpp"
#include "verify/reachability.hpp"
#include "verify/scc.hpp"

namespace ssr {
namespace {

using adjacency_t = std::vector<std::vector<std::size_t>>;

TEST(SccKernel, EmptyGraphHasZeroComponents) {
  const scc_result scc = strongly_connected_components(adjacency_t{});
  EXPECT_EQ(scc.count, 0u);
  EXPECT_TRUE(scc.component.empty());
  EXPECT_TRUE(terminal_components({}, scc).empty());
  EXPECT_TRUE(component_sizes(scc).empty());
}

TEST(SccKernel, IsolatedVertexIsATerminalSingleton) {
  const adjacency_t g{{}};
  const scc_result scc = strongly_connected_components(g);
  ASSERT_EQ(scc.count, 1u);
  EXPECT_EQ(scc.component[0], 0u);
  EXPECT_EQ(terminal_components(g, scc), std::vector<bool>{true});
  EXPECT_EQ(component_sizes(scc), std::vector<std::size_t>{1});
}

// The contract silence detection relies on: a vertex whose only edge is a
// self-loop is still a *terminal* singleton component (the spin stays
// inside the component), distinguishable from silent only via the
// caller's non-null bookkeeping.
TEST(SccKernel, SelfLoopSingletonStaysTerminal) {
  const adjacency_t g{{0}};
  const scc_result scc = strongly_connected_components(g);
  ASSERT_EQ(scc.count, 1u);
  EXPECT_EQ(terminal_components(g, scc), std::vector<bool>{true});
  EXPECT_EQ(component_sizes(scc), std::vector<std::size_t>{1});
}

TEST(SccKernel, TwoCycleIsOneComponent) {
  const adjacency_t g{{1}, {0}};
  const scc_result scc = strongly_connected_components(g);
  ASSERT_EQ(scc.count, 1u);
  EXPECT_EQ(scc.component[0], scc.component[1]);
  EXPECT_EQ(terminal_components(g, scc), std::vector<bool>{true});
  EXPECT_EQ(component_sizes(scc), std::vector<std::size_t>{2});
}

// 0 -> 1 -> 2: three singleton components; only the sink is terminal, and
// ids run in reverse topological order (the property the absorption solver
// uses to process successors before predecessors).
TEST(SccKernel, ChainIdsAreReverseTopological) {
  const adjacency_t g{{1}, {2}, {}};
  const scc_result scc = strongly_connected_components(g);
  ASSERT_EQ(scc.count, 3u);
  EXPECT_GT(scc.component[0], scc.component[1]);
  EXPECT_GT(scc.component[1], scc.component[2]);
  const std::vector<bool> terminal = terminal_components(g, scc);
  EXPECT_FALSE(terminal[scc.component[0]]);
  EXPECT_FALSE(terminal[scc.component[1]]);
  EXPECT_TRUE(terminal[scc.component[2]]);
}

// Cycle {0,1} feeding cycle {2,3}: the condensation is an edge between two
// two-vertex components; the source component is not terminal and carries
// the larger id.
TEST(SccKernel, CondensationOfTwoCycles) {
  const adjacency_t g{{1}, {0, 2}, {3}, {2}};
  const scc_result scc = strongly_connected_components(g);
  ASSERT_EQ(scc.count, 2u);
  EXPECT_EQ(scc.component[0], scc.component[1]);
  EXPECT_EQ(scc.component[2], scc.component[3]);
  EXPECT_GT(scc.component[0], scc.component[2]);
  const std::vector<bool> terminal = terminal_components(g, scc);
  EXPECT_FALSE(terminal[scc.component[0]]);
  EXPECT_TRUE(terminal[scc.component[2]]);
  EXPECT_EQ(component_sizes(scc), (std::vector<std::size_t>{2, 2}));
}

// Two disjoint sinks: multiple terminal components coexist (the shape of a
// non-self-stabilizing protocol with a wrong stable outcome).
TEST(SccKernel, DisjointSinksAreBothTerminal) {
  const adjacency_t g{{1, 2}, {}, {}};
  const scc_result scc = strongly_connected_components(g);
  ASSERT_EQ(scc.count, 3u);
  const std::vector<bool> terminal = terminal_components(g, scc);
  std::size_t terminal_count = 0;
  for (const bool t : terminal) terminal_count += t ? 1 : 0;
  EXPECT_EQ(terminal_count, 2u);
  EXPECT_FALSE(terminal[scc.component[0]]);
}

TEST(SccKernel, DuplicateEdgesDoNotAffectTheResult) {
  const adjacency_t g{{1, 1, 1}, {0, 0}};
  const scc_result scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count, 1u);
  EXPECT_EQ(terminal_components(g, scc), std::vector<bool>{true});
}

TEST(SccKernel, ComponentSizesSumToVertexCount) {
  // A mixed graph: a 3-cycle, a tail, and an isolated vertex.
  const adjacency_t g{{1}, {2}, {0}, {0}, {}};
  const scc_result scc = strongly_connected_components(g);
  const std::vector<std::size_t> sizes = component_sizes(scc);
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}),
            g.size());
  for (std::size_t v = 0; v < g.size(); ++v) {
    EXPECT_LT(scc.component[v], scc.count);
  }
}

// A long directed path exercises the iterative Tarjan's explicit frame
// stack: every vertex is its own component and ids stay reverse
// topological end to end.
TEST(SccKernel, LongPathDoesNotRecurse) {
  const std::size_t len = 10000;
  adjacency_t g(len);
  for (std::size_t v = 0; v + 1 < len; ++v) g[v].push_back(v + 1);
  const scc_result scc = strongly_connected_components(g);
  ASSERT_EQ(scc.count, len);
  for (std::size_t v = 0; v + 1 < len; ++v) {
    EXPECT_GT(scc.component[v], scc.component[v + 1]);
  }
}

// The shared terminal-class verdict on hand-built digraphs.  In the second,
// 0 -> {1, 2}: 1 is a correct silent sink and 2 an incorrect one spinning
// on a non-null self-loop, so only 2 is a witness -- 0 is incorrect but
// not terminal.
TEST(SccKernel, TerminalVerdictMarksWitnesses) {
  const terminal_verdict clean =
      classify_terminal_classes(adjacency_t{{1}, {}}, {false, true});
  EXPECT_EQ(clean.terminal_classes, 1u);
  EXPECT_TRUE(clean.self_stabilizing);
  EXPECT_TRUE(clean.silent);

  const terminal_verdict v =
      classify_terminal_classes(adjacency_t{{1, 2}, {}, {2}},
                                {false, true, false});
  EXPECT_EQ(v.terminal_classes, 2u);
  EXPECT_FALSE(v.self_stabilizing);
  EXPECT_FALSE(v.silent);
  EXPECT_EQ(v.incorrect_terminal, (std::vector<bool>{false, false, true}));
  EXPECT_EQ(v.hot_terminal, (std::vector<bool>{false, false, true}));
}

// The multiset verifier on Protocol 1 at n=2: three configurations, one
// correct silent sink -- the smallest real instance of the terminal-SCC
// criterion.
TEST(ReachabilityVerifier, BaselineAtTwoAgents) {
  const silent_n_state_ssr p(2);
  const verification_result r =
      verify_self_stabilization(p, p.all_states());
  EXPECT_EQ(r.configurations, 3u);
  EXPECT_EQ(r.terminal_components, 1u);
  EXPECT_TRUE(r.self_stabilizing);
  EXPECT_TRUE(r.silent);
  EXPECT_FALSE(r.counterexample.has_value());
}

// The position-aware verifier's verdicts on the complete graph (where
// agent positions are interchangeable) equal the multiset verifier's.
template <ranking_protocol P>
void expect_complete_graph_matches_multisets(
    const P& p, const std::vector<typename P::agent_state>& states) {
  const std::uint32_t n = p.population_size();
  const graph_verification_result tuples =
      verify_on_graph(p, interaction_graph::complete(n), states);
  const verification_result multisets = verify_self_stabilization(p, states);
  EXPECT_EQ(tuples.self_stabilizing, multisets.self_stabilizing) << "n=" << n;
  EXPECT_EQ(tuples.silent, multisets.silent) << "n=" << n;
}

// The position-aware verifier agrees with the multiset one on the complete
// graph (where agent positions are interchangeable).
TEST(GraphReachabilityVerifier, CompleteGraphMatchesMultisetVerdict) {
  const silent_n_state_ssr p(3);
  const graph_verification_result r = verify_on_graph(
      p, interaction_graph::complete(3), p.all_states());
  EXPECT_EQ(r.configurations, 27u);  // 3^3 position-aware tuples
  EXPECT_TRUE(r.self_stabilizing);
  EXPECT_TRUE(r.silent);

  for (const std::uint32_t n : {2u, 3u, 4u}) {
    const silent_n_state_ssr baseline(n);
    expect_complete_graph_matches_multisets(baseline, baseline.all_states());
  }
  const optimal_silent_ssr optimal(2, verification_tuning(2));
  expect_complete_graph_matches_multisets(optimal, optimal.all_states());
  const initialized_leader_election initialized(4);
  expect_complete_graph_matches_multisets(initialized,
                                          initialized.all_states());
  const rank_skipping_baseline mutant{4};
  expect_complete_graph_matches_multisets(mutant, mutant.all_states());
}

// On a 4-ring two equal-rank agents on opposite corners never meet:
// an incorrect silent terminal configuration exists and the verifier must
// surface a counterexample.
TEST(GraphReachabilityVerifier, RingBreaksBaselineWithWitness) {
  const silent_n_state_ssr p(4);
  const graph_verification_result r =
      verify_on_graph(p, interaction_graph::ring(4), p.all_states());
  EXPECT_FALSE(r.self_stabilizing);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_EQ(r.counterexample->size(), 4u);
}

}  // namespace
}  // namespace ssr
