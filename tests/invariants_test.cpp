// Cross-cutting invariant and metamorphic tests: properties that must hold
// *throughout* executions, not just at stabilization, plus consistency
// checks between independent implementations of the same notion.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "engine_steps.hpp"
#include "ssr.hpp"

namespace ssr {
namespace {

// The incremental rank_tracker must agree with the from-scratch
// is_valid_ranking predicate at every point of a random execution
// (metamorphic: two implementations, one notion).
TEST(Invariants, RankTrackerMatchesPredicateThroughoutExecution) {
  const std::uint32_t n = 16;
  optimal_silent_ssr p(n);
  rng_t scenario_rng(3);
  auto agents = adversarial_configuration(
      p, optimal_silent_scenario::uniform_random, scenario_rng);

  rng_t rng(17);
  rank_tracker tracker(n);
  for (const auto& s : agents) tracker.add(p.rank_of(s));

  for (int step = 0; step < 30000; ++step) {
    const agent_pair pair = sample_pair(rng, n);
    auto& a = agents[pair.initiator];
    auto& b = agents[pair.responder];
    const auto ra = p.rank_of(a);
    const auto rb = p.rank_of(b);
    p.interact(a, b, rng);
    tracker.update(ra, p.rank_of(a));
    tracker.update(rb, p.rank_of(b));
    if (step % 997 == 0) {
      ASSERT_EQ(tracker.correct(), is_valid_ranking(p, agents))
          << "diverged at step " << step;
    }
  }
}

// Name ordering must coincide with lexicographic order of the rendered
// bitstrings (strings over '0' < '1'), including the prefix rule.
TEST(Invariants, NameOrderMatchesStringOrder) {
  rng_t rng(5);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto la = static_cast<std::uint32_t>(uniform_below(rng, 8));
    const auto lb = static_cast<std::uint32_t>(uniform_below(rng, 8));
    const name_t a = random_name(rng, la);
    const name_t b = random_name(rng, lb);
    const std::string sa = a.empty() ? "" : a.to_string();
    const std::string sb = b.empty() ? "" : b.to_string();
    EXPECT_EQ(a < b, sa < sb) << sa << " vs " << sb;
    EXPECT_EQ(a == b, sa == sb);
  }
}

// In Optimal-Silent-SSR, the children counter can never exceed the number
// of in-range child ranks, and settled ranks stay in {1..n} -- at every
// step, from every scenario.
TEST(Invariants, OptimalSilentFieldRangesHoldThroughout) {
  const std::uint32_t n = 12;
  optimal_silent_ssr p(n);
  for (const auto scenario : {optimal_silent_scenario::uniform_random,
                              optimal_silent_scenario::all_unsettled_expired,
                              optimal_silent_scenario::duplicated_ranks}) {
    rng_t scenario_rng(7);
    auto agents = adversarial_configuration(p, scenario, scenario_rng);
    rng_t rng(23);
    for (int step = 0; step < 20000; ++step) {
      const agent_pair pair = sample_pair(rng, n);
      p.interact(agents[pair.initiator], agents[pair.responder], rng);
      if (step % 499 != 0) continue;
      for (const auto& s : agents) {
        switch (s.role) {
          case optimal_silent_ssr::role_t::settled:
            ASSERT_GE(s.rank, 1u);
            ASSERT_LE(s.rank, n);
            ASSERT_LE(s.children, 2u);
            break;
          case optimal_silent_ssr::role_t::unsettled:
            ASSERT_LE(s.errorcount, p.params().e_max);
            break;
          case optimal_silent_ssr::role_t::resetting:
            ASSERT_LE(s.reset.resetcount, p.params().r_max);
            ASSERT_LE(s.reset.delaytimer, p.params().d_max);
            break;
        }
      }
    }
  }
}

// Once Optimal-Silent-SSR stabilizes, the settled agents form a consistent
// full binary tree: every non-root rank's parent (rank/2) is present, and
// every parent's children counter equals its number of in-range children.
TEST(Invariants, OptimalSilentStabilizesIntoConsistentTree) {
  const std::uint32_t n = 21;
  optimal_silent_ssr p(n);
  std::vector<optimal_silent_ssr::agent_state> final_config;
  convergence_options opt;
  opt.max_parallel_time = 1e6;
  const auto r = measure_convergence(p, p.initial_configuration(), 31, opt,
                                     &final_config);
  ASSERT_TRUE(r.converged);
  ASSERT_TRUE(is_valid_ranking(p, final_config));
  std::vector<const optimal_silent_ssr::agent_state*> by_rank(n + 1, nullptr);
  for (const auto& s : final_config) by_rank[s.rank] = &s;
  for (std::uint32_t rank = 1; rank <= n; ++rank) {
    ASSERT_NE(by_rank[rank], nullptr);
    const std::uint32_t in_range_children =
        (2 * rank + 1 <= n) ? 2 : (2 * rank <= n ? 1 : 0);
    // A recruiting parent only stops at 2; with the protocol complete,
    // every parent has recruited exactly its in-range children.
    EXPECT_EQ(by_rank[rank]->children, in_range_children) << "rank " << rank;
  }
}

// Sublinear-Time-SSR from a clean start must never revoke a ranking it
// reported (no false positives; counted via correctness_losses).
TEST(Invariants, SublinearCleanRunsNeverRevokeRanking) {
  for (const std::uint32_t h : {0u, 1u, 2u}) {
    const std::uint32_t n = 8;
    sublinear_time_ssr p(n, h);
    rng_t rng(41 + h);
    auto init = p.initial_configuration(rng);
    convergence_options opt;
    opt.max_parallel_time = 1e6;
    opt.confirm_parallel_time = 200.0;
    const auto r = measure_convergence(p, std::move(init), 43 + h, opt);
    ASSERT_TRUE(r.converged) << "h=" << h;
    EXPECT_EQ(r.correctness_losses, 0u) << "h=" << h;
  }
}

// Parallel time is interactions / n by definition -- spot-check the
// accounting across engines (direct simulation vs measured convergence).
TEST(Invariants, ParallelTimeAccounting) {
  silent_n_state_ssr p(10);
  direct_engine<silent_n_state_ssr> sim(
      p, std::vector<silent_n_state_ssr::agent_state>(10), 1);
  run_for(sim, 1000);
  EXPECT_DOUBLE_EQ(sim.parallel_time(), 100.0);
}

// The roll call can only complete for everyone after it has completed for
// someone, and both beat a naive n * direct-meeting bound.
TEST(Invariants, RollCallOrdering) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto r = run_roll_call(128, seed);
    EXPECT_LE(r.first_complete_time, r.completion_time);
    EXPECT_LT(r.completion_time, 128.0);  // far below Theta(n)
  }
}

}  // namespace
}  // namespace ssr
