// Why the paper assumes the complete interaction graph: on sparse
// topologies the protocols' error-detection arguments break, because two
// agents holding the same rank may never be scheduled together.  We exhibit
// the failures both exhaustively (terminal-SCC verification on tiny graphs)
// and constructively (explicit silent-but-wrong configurations), and check
// that the complete graph verifies under the same machinery.
#include <gtest/gtest.h>

#include "engine_steps.hpp"
#include "pp/engine.hpp"
#include "protocols/silent_n_state.hpp"
#include "verify/graph_reachability.hpp"

namespace ssr {
namespace {

TEST(Topology, BaselineVerifiesOnCompleteGraph) {
  const std::uint32_t n = 4;
  silent_n_state_ssr p(n);
  const auto result =
      verify_on_graph(p, interaction_graph::complete(n), p.all_states());
  EXPECT_TRUE(result.self_stabilizing);
  EXPECT_TRUE(result.silent);
  EXPECT_EQ(result.configurations, 256u);  // 4^4 position-aware configs
}

TEST(Topology, BaselineFailsOnRing) {
  // Ranks (0, 1, 0, 1) around a 4-ring: neighbors always differ, so the
  // configuration is silent -- and wrong.  The exhaustive check finds it.
  const std::uint32_t n = 4;
  silent_n_state_ssr p(n);
  const auto result =
      verify_on_graph(p, interaction_graph::ring(n), p.all_states());
  EXPECT_FALSE(result.self_stabilizing);
  ASSERT_TRUE(result.counterexample.has_value());
}

TEST(Topology, BaselineFailsOnStar) {
  // Two leaves with the same rank never interact; as long as the center
  // differs from both, nothing ever changes.
  const std::uint32_t n = 4;
  silent_n_state_ssr p(n);
  const auto result =
      verify_on_graph(p, interaction_graph::star(n), p.all_states());
  EXPECT_FALSE(result.self_stabilizing);
}

TEST(Topology, ExplicitRingLivelockIsSilent) {
  // The constructive witness behind BaselineFailsOnRing.
  const std::uint32_t n = 4;
  silent_n_state_ssr p(n);
  std::vector<silent_n_state_ssr::agent_state> config(n);
  config[0].rank = 0;
  config[1].rank = 1;
  config[2].rank = 0;
  config[3].rank = 1;
  direct_engine<silent_n_state_ssr, interaction_graph> sim(
      p, interaction_graph::ring(n), config, 1);
  EXPECT_TRUE(is_silent_configuration(sim));
  EXPECT_FALSE(is_valid_ranking(p, sim.agents()));
  run_for(sim, 10000);
  EXPECT_FALSE(is_valid_ranking(p, sim.agents()));  // stuck forever
}

TEST(Topology, SameMultisetRecoversOnCompleteGraph) {
  // The identical state multiset is NOT stuck when every pair may interact:
  // the complete graph repairs it.
  const std::uint32_t n = 4;
  silent_n_state_ssr p(n);
  std::vector<silent_n_state_ssr::agent_state> config(n);
  config[0].rank = 0;
  config[1].rank = 1;
  config[2].rank = 0;
  config[3].rank = 1;
  direct_engine<silent_n_state_ssr, interaction_graph> sim(
      p, interaction_graph::complete(n), config, 1);
  EXPECT_FALSE(is_silent_configuration(sim));
  const bool done = run_until(
      sim,
      [](const auto& s) {
        return is_valid_ranking(s.protocol(), s.agents());
      },
      1'000'000ull);
  EXPECT_TRUE(done);
}

TEST(Topology, DenseRandomGraphsStillDeadlockFromCollisions) {
  // Exploratory (not a paper claim), and a sharper lesson than expected:
  // even at 80% edge density, runs from the all-zero configuration (every
  // pair in collision) usually end *permanently stuck* -- the rank shuffle
  // keeps visiting configurations where some equal-rank pair is one of the
  // missing edges, and any such configuration that is otherwise
  // conflict-free is silent and wrong.  Losing even a few edges destroys
  // the protocol not just in the adversarial worst case but on typical
  // runs.  Every non-converged run below must be silent and incorrect.
  const std::uint32_t n = 12;
  silent_n_state_ssr p(n);
  int converged = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto g = interaction_graph::erdos_renyi(n, 0.8, seed);
    direct_engine<silent_n_state_ssr, interaction_graph> sim(
        p, g, std::vector<silent_n_state_ssr::agent_state>(n), seed);
    const bool done = run_until(
        sim,
        [](const auto& s) {
          return is_valid_ranking(s.protocol(), s.agents());
        },
        5'000'000ull);
    if (done) {
      ++converged;
    } else {
      EXPECT_TRUE(is_silent_configuration(sim)) << "seed " << seed;
      EXPECT_FALSE(is_valid_ranking(p, sim.agents())) << "seed " << seed;
    }
  }
  // Both outcomes occur, but deadlock dominates.
  EXPECT_LT(converged, 10);
}

}  // namespace
}  // namespace ssr
