#include "pp/graph.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "analysis/ks_test.hpp"
#include "engine_steps.hpp"
#include "pp/convergence.hpp"
#include "pp/engine.hpp"
#include "pp/trial.hpp"
#include "protocols/loose_stabilizing.hpp"
#include "protocols/silent_n_state.hpp"

namespace ssr {
namespace {

TEST(Graph, CompleteHasAllPairs) {
  const auto g = interaction_graph::complete(6);
  EXPECT_EQ(g.size(), 6u);
  EXPECT_EQ(g.edge_count(), 15u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.min_degree(), 5u);
  EXPECT_EQ(g.max_degree(), 5u);
}

TEST(Graph, RingAndPathAndStar) {
  const auto ring = interaction_graph::ring(8);
  EXPECT_EQ(ring.edge_count(), 8u);
  EXPECT_EQ(ring.min_degree(), 2u);
  EXPECT_EQ(ring.max_degree(), 2u);
  EXPECT_TRUE(ring.is_connected());

  const auto path = interaction_graph::path(8);
  EXPECT_EQ(path.edge_count(), 7u);
  EXPECT_EQ(path.min_degree(), 1u);
  EXPECT_TRUE(path.is_connected());

  const auto star = interaction_graph::star(8);
  EXPECT_EQ(star.edge_count(), 7u);
  EXPECT_EQ(star.max_degree(), 7u);
  EXPECT_EQ(star.min_degree(), 1u);
  EXPECT_TRUE(star.is_connected());
}

TEST(Graph, RejectsMalformedEdges) {
  using edge_list = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
  EXPECT_THROW(interaction_graph(4, edge_list{{0, 0}}), std::logic_error);
  EXPECT_THROW(interaction_graph(4, edge_list{{0, 7}}), std::logic_error);
  EXPECT_THROW(interaction_graph(4, edge_list{{0, 1}, {1, 0}}),
               std::logic_error);
  EXPECT_THROW(interaction_graph(4, edge_list{}), std::logic_error);
}

TEST(Graph, ErdosRenyiIsAlwaysConnected) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto g = interaction_graph::erdos_renyi(32, 0.02, seed);
    EXPECT_TRUE(g.is_connected()) << "seed " << seed;
  }
}

TEST(Graph, ErdosRenyiDensityTracksP) {
  const auto sparse = interaction_graph::erdos_renyi(64, 0.05, 1);
  const auto dense = interaction_graph::erdos_renyi(64, 0.5, 1);
  EXPECT_LT(sparse.edge_count(), dense.edge_count());
  const double expected_dense = 0.5 * 64 * 63 / 2;
  EXPECT_NEAR(static_cast<double>(dense.edge_count()), expected_dense,
              0.15 * expected_dense);
}

TEST(Graph, RandomRegularHasExactDegrees) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto g = interaction_graph::random_regular(16, 4, seed);
    EXPECT_EQ(g.min_degree(), 4u);
    EXPECT_EQ(g.max_degree(), 4u);
    EXPECT_TRUE(g.is_connected());
    EXPECT_EQ(g.edge_count(), 16u * 4 / 2);
  }
}

TEST(Graph, RandomRegularRejectsOddStubCount) {
  EXPECT_THROW(interaction_graph::random_regular(5, 3, 1), std::logic_error);
}

TEST(Graph, SamplerOnlyEmitsEdges) {
  const auto g = interaction_graph::ring(6);
  rng_t rng(3);
  for (int i = 0; i < 10000; ++i) {
    const agent_pair p = g.sample(rng);
    const std::uint32_t d =
        (p.initiator + 6 - p.responder) % 6;  // ring distance
    EXPECT_TRUE(d == 1 || d == 5) << p.initiator << "," << p.responder;
  }
}

TEST(Graph, SamplerIsUniformOverOrientedEdges) {
  const auto g = interaction_graph::star(4);  // 3 edges, 6 orientations
  rng_t rng(7);
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> count;
  constexpr int draws = 60000;
  for (int i = 0; i < draws; ++i) {
    const agent_pair p = g.sample(rng);
    ++count[{p.initiator, p.responder}];
  }
  EXPECT_EQ(count.size(), 6u);
  for (const auto& [pair, c] : count) {
    EXPECT_NEAR(c, draws / 6.0, 5 * std::sqrt(draws / 6.0));
  }
}

TEST(GraphSimulation, MatchesCompleteGraphSemantics) {
  // On the complete graph, the baseline stabilizes as usual.
  const std::uint32_t n = 8;
  silent_n_state_ssr p(n);
  direct_engine<silent_n_state_ssr, interaction_graph> sim(
      p, interaction_graph::complete(n),
      std::vector<silent_n_state_ssr::agent_state>(n), 3);
  const bool done = run_until(
      sim,
      [](const auto& s) {
        return is_valid_ranking(s.protocol(), s.agents());
      },
      10'000'000ull);
  EXPECT_TRUE(done);
  EXPECT_TRUE(is_silent_configuration(sim));
}

TEST(GraphSimulation, CompleteGraphSchedulerMatchesPairScheduler) {
  // Same distribution of stabilization times under the edge scheduler on
  // the complete graph and the uniform ordered-pair scheduler (KS check).
  const std::uint32_t n = 8;
  silent_n_state_ssr p(n);
  const auto pair_sched = run_trials(300, 61000, [&](std::uint64_t seed) {
    std::vector<silent_n_state_ssr::agent_state> init(n);
    return measure_convergence(p, init, seed).convergence_time;
  });
  const auto edge_sched = run_trials(300, 62000, [&](std::uint64_t seed) {
    direct_engine<silent_n_state_ssr, interaction_graph> sim(
        p, interaction_graph::complete(n),
        std::vector<silent_n_state_ssr::agent_state>(n), seed);
    run_until(
        sim,
        [](const auto& s) {
          return is_valid_ranking(s.protocol(), s.agents());
        },
        100'000'000ull);
    return sim.parallel_time();
  });
  const auto ks = ks_two_sample(pair_sched, edge_sched);
  EXPECT_GT(ks.p_value, 0.001) << "KS statistic " << ks.statistic;
}

TEST(GraphSimulation, RunCoreStopsAtTheFirstCorrectConfiguration) {
  // A graph-scheduled direct_engine is a simulation_engine, so the run core
  // measures graph runs; for a silent protocol and for loose LE the
  // measurement is the first correct configuration a per-interaction check
  // finds on the same trajectory.
  static_assert(
      simulation_engine<direct_engine<silent_n_state_ssr, interaction_graph>>);
  const std::uint32_t n = 8;
  const silent_n_state_ssr baseline(n);
  const loose_stabilizing_le loose(16, 12);
  int ranked = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    direct_engine<silent_n_state_ssr, interaction_graph> measured(
        baseline, interaction_graph::erdos_renyi(n, 0.9, seed),
        std::vector<silent_n_state_ssr::agent_state>(n), seed);
    direct_engine<silent_n_state_ssr, interaction_graph> checked = measured;
    const convergence_result result = measure_convergence_run(
        measured, convergence_options{.max_parallel_time = 1e5});
    const bool done = run_until(
        checked,
        [](const auto& s) {
          return is_valid_ranking(s.protocol(), s.agents());
        },
        std::uint64_t{100'000} * n);
    EXPECT_EQ(result.converged, done) << seed;
    if (done) {
      EXPECT_EQ(result.convergence_time, checked.parallel_time()) << seed;
      ++ranked;
    }

    direct_engine<loose_stabilizing_le, interaction_graph> leaders(
        loose, interaction_graph::star(16), loose.dead_configuration(), seed);
    direct_engine<loose_stabilizing_le, interaction_graph> counted = leaders;
    const convergence_result elected = measure_convergence_run(
        leaders, convergence_options{.max_parallel_time = 1e4});
    ASSERT_TRUE(elected.converged) << seed;
    run_until(
        counted,
        [&](const auto& s) {
          return loose.leader_count(s.agents()) == 1;
        },
        elected.interactions);
    EXPECT_EQ(elected.convergence_time, counted.parallel_time()) << seed;
  }
  EXPECT_GT(ranked, 0);
}

TEST(GraphSimulation, RejectsSizeMismatch) {
  silent_n_state_ssr p(8);
  using graph_engine = direct_engine<silent_n_state_ssr, interaction_graph>;
  EXPECT_THROW(graph_engine(p, interaction_graph::ring(6),
                            std::vector<silent_n_state_ssr::agent_state>(8),
                            1),
               std::logic_error);
}

}  // namespace
}  // namespace ssr
