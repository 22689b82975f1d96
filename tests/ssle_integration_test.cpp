// Integration: every SSR protocol in the library solves SSLE through the
// same rank-1 adapter (Section 2, "Leader election and ranking"), and the
// three protocols agree on what a correct configuration is.
#include <gtest/gtest.h>

#include "engine_steps.hpp"
#include "pp/convergence.hpp"
#include "pp/engine.hpp"
#include "protocols/adversary.hpp"
#include "protocols/optimal_silent.hpp"
#include "protocols/silent_n_state.hpp"
#include "protocols/sublinear.hpp"

namespace ssr {
namespace {

template <class P>
void expect_unique_leader(const P& p,
                          const std::vector<typename P::agent_state>& config) {
  EXPECT_TRUE(is_valid_ranking(p, config));
  EXPECT_EQ(leader_count(p, config), 1u);
  // The leader is exactly the rank-1 agent.
  std::size_t leaders = 0;
  for (const auto& s : config) {
    if (is_leader(p, s)) {
      ++leaders;
      EXPECT_EQ(p.rank_of(s), 1u);
    }
  }
  EXPECT_EQ(leaders, 1u);
}

TEST(SsleIntegration, BaselineElectsUniqueLeader) {
  const std::uint32_t n = 12;
  silent_n_state_ssr p(n);
  rng_t rng(1);
  auto init = adversarial_configuration(p, rng);
  std::vector<silent_n_state_ssr::agent_state> final_config;
  convergence_options opt;
  opt.max_parallel_time = 1e6;
  const auto r = measure_convergence(p, std::move(init), 5, opt, &final_config);
  ASSERT_TRUE(r.converged);
  expect_unique_leader(p, final_config);
}

TEST(SsleIntegration, OptimalSilentElectsUniqueLeader) {
  const std::uint32_t n = 24;
  optimal_silent_ssr p(n);
  rng_t rng(2);
  auto init = adversarial_configuration(
      p, optimal_silent_scenario::uniform_random, rng);
  std::vector<optimal_silent_ssr::agent_state> final_config;
  convergence_options opt;
  opt.max_parallel_time = 1e6;
  const auto r = measure_convergence(p, std::move(init), 6, opt, &final_config);
  ASSERT_TRUE(r.converged);
  expect_unique_leader(p, final_config);
}

TEST(SsleIntegration, SublinearElectsUniqueLeader) {
  const std::uint32_t n = 8;
  sublinear_time_ssr p(n, 2u);
  rng_t rng(3);
  auto init = adversarial_configuration(
      p, sublinear_scenario::uniform_random, rng);
  std::vector<sublinear_time_ssr::agent_state> final_config;
  convergence_options opt;
  opt.max_parallel_time = 1e6;
  opt.confirm_parallel_time = 100.0;
  const auto r = measure_convergence(p, std::move(init), 7, opt, &final_config);
  ASSERT_TRUE(r.converged);
  expect_unique_leader(p, final_config);
}

// The all-leaders configuration from the paper's Omega(log n) argument:
// every protocol must demote all but one "leader".
TEST(SsleIntegration, AllLeadersConfigurationsRecover) {
  {
    silent_n_state_ssr p(16);
    std::vector<silent_n_state_ssr::agent_state> init(16);  // all rank 0
    std::vector<silent_n_state_ssr::agent_state> final_config;
    const auto r = measure_convergence(p, init, 11, {}, &final_config);
    ASSERT_TRUE(r.converged);
    expect_unique_leader(p, final_config);
  }
  {
    optimal_silent_ssr p(16);
    rng_t rng(4);
    auto init = adversarial_configuration(
        p, optimal_silent_scenario::all_settled_rank_one, rng);
    std::vector<optimal_silent_ssr::agent_state> final_config;
    convergence_options opt;
    opt.max_parallel_time = 1e6;
    const auto r =
        measure_convergence(p, std::move(init), 12, opt, &final_config);
    ASSERT_TRUE(r.converged);
    expect_unique_leader(p, final_config);
  }
}

// Once stable, the silent protocols are *stably* correct: no execution may
// leave the correct set.  Run long past convergence and re-check.
TEST(SsleIntegration, SilentProtocolsStayCorrect) {
  {
    silent_n_state_ssr p(10);
    std::vector<silent_n_state_ssr::agent_state> config(10);
    for (std::uint32_t i = 0; i < 10; ++i) config[i].rank = i;
    direct_engine<silent_n_state_ssr> sim(p, config, 1);
    run_for(sim, 50000);
    EXPECT_TRUE(is_valid_ranking(sim.protocol(), sim.agents()));
  }
  {
    optimal_silent_ssr p(10);
    rng_t rng(9);
    auto config = adversarial_configuration(
        p, optimal_silent_scenario::valid_ranking, rng);
    direct_engine<optimal_silent_ssr> sim(p, std::move(config), 1);
    run_for(sim, 50000);
    EXPECT_TRUE(is_valid_ranking(sim.protocol(), sim.agents()));
  }
}

}  // namespace
}  // namespace ssr
