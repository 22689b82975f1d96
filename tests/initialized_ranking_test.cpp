#include "protocols/initialized_ranking.hpp"

#include <gtest/gtest.h>

#include "engine_steps.hpp"
#include "pp/convergence.hpp"
#include "pp/engine.hpp"
#include "verify/reachability.hpp"

namespace ssr {
namespace {

TEST(InitializedRanking, ConvergesFromDesignatedStart) {
  for (const std::uint32_t n : {2u, 5u, 16u, 64u}) {
    initialized_tree_ranking p(n);
    std::vector<initialized_tree_ranking::agent_state> final_config;
    const auto r = measure_convergence(p, p.initial_configuration(),
                                       100 + n, {}, &final_config);
    ASSERT_TRUE(r.converged) << "n=" << n;
    EXPECT_TRUE(is_valid_ranking(p, final_config));
    EXPECT_EQ(leader_count(p, final_config), 1u);
  }
}

TEST(InitializedRanking, SilentOnceRanked) {
  const std::uint32_t n = 12;
  initialized_tree_ranking p(n);
  std::vector<initialized_tree_ranking::agent_state> final_config;
  const auto r =
      measure_convergence(p, p.initial_configuration(), 7, {}, &final_config);
  ASSERT_TRUE(r.converged);
  direct_engine<initialized_tree_ranking> sim(p, final_config, 1);
  EXPECT_TRUE(is_silent_configuration(sim));
}

TEST(InitializedRanking, LinearTime) {
  // Theta(n): doubling n should roughly double the mean time.
  auto mean_time = [](std::uint32_t n) {
    initialized_tree_ranking p(n);
    double total = 0.0;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      total += measure_convergence(p, p.initial_configuration(), seed)
                   .convergence_time;
    }
    return total / 20;
  };
  const double t64 = mean_time(64);
  const double t256 = mean_time(256);
  EXPECT_GT(t256 / t64, 2.0);
  EXPECT_LT(t256 / t64, 8.0);
}

TEST(InitializedRanking, TinyStateSpace) {
  EXPECT_EQ(initialized_tree_ranking::state_count(100), 301u);
  initialized_tree_ranking p(5);
  EXPECT_EQ(p.all_states().size(), initialized_tree_ranking::state_count(5));
}

TEST(InitializedRanking, NotSelfStabilizing) {
  // The price of dropping the reset machinery: the all-unsettled
  // configuration (or any corrupted one) deadlocks, and the exhaustive
  // verifier rejects the protocol outright.
  const std::uint32_t n = 3;
  initialized_tree_ranking p(n);
  const auto result = verify_self_stabilization(p, p.all_states());
  EXPECT_FALSE(result.self_stabilizing);
  ASSERT_TRUE(result.counterexample.has_value());
}

TEST(InitializedRanking, AllUnsettledDeadlocks) {
  const std::uint32_t n = 8;
  initialized_tree_ranking p(n);
  std::vector<initialized_tree_ranking::agent_state> config(n);  // no root
  direct_engine<initialized_tree_ranking> sim(p, config, 3);
  EXPECT_TRUE(is_silent_configuration(sim));
  run_for(sim, 10000);
  EXPECT_FALSE(is_valid_ranking(p, sim.agents()));
}

}  // namespace
}  // namespace ssr
