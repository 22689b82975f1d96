// E9 -- the complete-graph assumption, quantified (exploratory; the paper
// assumes the complete graph throughout and cites [11, 25, 57, 60] for
// other topologies).
//
// Protocol 1's stabilization argument needs colliding agents to meet
// directly; remove edges and the argument -- and the protocol -- breaks.
// tests/topology_test.cpp proves this exhaustively at n = 4 (ring/star
// counterexamples); here we measure how fast failure sets in as edges are
// deleted from the complete graph, and that Optimal-Silent-SSR (whose
// collision detection has the same direct-meeting structure and whose
// ranking needs parent-child adjacency) degrades the same way.
#include <iostream>

#include "analysis/statistics.hpp"
#include "analysis/table.hpp"
#include "common.hpp"
#include "pp/convergence.hpp"
#include "pp/engine.hpp"
#include "pp/graph.hpp"
#include "pp/trial.hpp"
#include "protocols/silent_n_state.hpp"

namespace {

using namespace ssr;
using namespace ssr::bench;

struct outcome {
  int converged = 0;
  int total = 0;
  std::vector<double> times;  // converged runs only
};

template <class P, class MakeConfig>
outcome run_on_graph(const P& p, const interaction_graph& base_graph,
                     MakeConfig make_config, std::size_t trials,
                     std::uint64_t seed, double max_time,
                     bool regenerate_graph = false, double er_p = 1.0) {
  outcome out;
  out.total = static_cast<int>(trials);
  const std::uint32_t n = p.population_size();
  for (std::size_t i = 0; i < trials; ++i) {
    const std::uint64_t s = derive_seed(seed, i);
    interaction_graph g = regenerate_graph
                              ? interaction_graph::erdos_renyi(n, er_p, s)
                              : base_graph;
    rng_t rng(s);
    direct_engine<P, interaction_graph> engine(p, std::move(g),
                                               make_config(rng),
                                               s ^ 0x7f4a7c15);
    // A silent protocol's first valid ranking is final, so the run core
    // with no confirmation window stops exactly there.
    const convergence_result result = measure_convergence_run(
        engine, convergence_options{.max_parallel_time = max_time});
    if (result.converged) {
      ++out.converged;
      out.times.push_back(result.convergence_time);
    }
  }
  return out;
}

std::string rate(const outcome& o) {
  return std::to_string(o.converged) + "/" + std::to_string(o.total);
}

std::string mean_time(const outcome& o) {
  if (o.times.empty()) return "--";
  return format_fixed(summarize(o.times).mean, 1);
}

}  // namespace

int main(int argc, char** argv) {
  banner("E9: bench_topology",
         "the complete-graph model assumption (Sections 1-2)",
         "off the complete graph, self-stabilization fails: colliding "
         "agents that are not adjacent can never be detected");
  const bench_args args = parse_bench_args(argc, argv);
  reporter rep(args, "E9", "Complete-graph assumption, quantified");
  if (args.engine.kind != engine_kind::direct) {
    std::cout << "(note: this bench samples interactions from non-complete "
                 "graphs, which only the\n direct engine's graph scheduler "
                 "supports -- the other engines assume the uniform\n "
                 "complete-graph scheduler, so the flag selects nothing "
                 "here)\n";
  }

  const std::uint32_t n = 16;
  silent_n_state_ssr baseline(n);
  auto random_ranks = [&](rng_t& rng) {
    std::vector<silent_n_state_ssr::agent_state> config(n);
    for (auto& s : config)
      s.rank = static_cast<std::uint32_t>(uniform_below(rng, n));
    return config;
  };

  {
    std::cout << "\nSilent-n-state-SSR, random start, fixed topologies "
                 "(n = " << n << ", budget 50000 time units):\n";
    text_table t({"graph", "edges", "converged", "mean time (conv. runs)"});
    struct named_graph {
      const char* name;
      interaction_graph g;
    };
    const named_graph graphs[] = {
        {"complete", interaction_graph::complete(n)},
        {"random 8-regular", interaction_graph::random_regular(n, 8, 7)},
        {"random 4-regular", interaction_graph::random_regular(n, 4, 7)},
        {"ring", interaction_graph::ring(n)},
        {"star", interaction_graph::star(n)},
    };
    for (const auto& [name, g] : graphs) {
      const auto out = run_on_graph(baseline, g, random_ranks,
                                    args.trials_or(40), args.seed_or(11),
                                    50'000.0);
      t.add_row({name, std::to_string(g.edge_count()), rate(out),
                 mean_time(out)});
      rep.add_value("topology_fixed", "convergence_fraction",
                    "silent_n_state", n, std::string("graph=") + name,
                    static_cast<double>(out.converged) / out.total,
                    "fraction");
    }
    t.print(std::cout);
  }

  {
    std::cout << "\nSilent-n-state-SSR on G(n, p), fresh graph per trial "
                 "(n = " << n << "):\n";
    text_table t({"edge prob p", "converged", "mean time (conv. runs)"});
    for (const double p : {1.0, 0.95, 0.9, 0.8, 0.6}) {
      const auto out = run_on_graph(baseline, interaction_graph::complete(n),
                                    random_ranks, args.trials_or(40),
                                    args.seed_or(23), 50'000.0,
                                    /*regenerate_graph=*/true, p);
      t.add_row({format_fixed(p, 2), rate(out), mean_time(out)});
      rep.add_value("topology_gnp", "convergence_fraction", "silent_n_state",
                    n, "p=" + format_fixed(p, 2),
                    static_cast<double>(out.converged) / out.total,
                    "fraction");
    }
    t.print(std::cout);
    std::cout << "  (Every non-converged run ends in a silent incorrect "
                 "configuration -- a collision across a missing edge; see "
                 "tests/topology_test.cpp for the exhaustive n = 4 proof.)\n";
  }

  {
    const std::uint32_t on = 16;
    optimal_silent_ssr optimal(on);
    auto adversarial = [&](rng_t& rng) {
      return adversarial_configuration(
          optimal, optimal_silent_scenario::uniform_random, rng);
    };
    std::cout << "\nOptimal-Silent-SSR on G(n, p) (n = " << on
              << ", budget 50000 time units):\n";
    text_table t({"edge prob p", "converged", "mean time (conv. runs)"});
    for (const double p : {1.0, 0.95, 0.9, 0.8}) {
      const auto out = run_on_graph(optimal, interaction_graph::complete(on),
                                    adversarial, args.trials_or(25),
                                    args.seed_or(37), 50'000.0,
                                    /*regenerate_graph=*/true, p);
      t.add_row({format_fixed(p, 2), rate(out), mean_time(out)});
      rep.add_value("topology_gnp", "convergence_fraction", "optimal_silent",
                    on, "p=" + format_fixed(p, 2),
                    static_cast<double>(out.converged) / out.total,
                    "fraction");
    }
    t.print(std::cout);
    std::cout << "  (A contrast the paper does not explore: Optimal-Silent-"
                 "SSR degrades gracefully where the baseline deadlocks.  A "
                 "failed tree assignment times out into a fresh reset with "
                 "a new random leader, so missing adjacencies cost retries "
                 "-- note the mean time blowing up as p drops -- rather "
                 "than correctness on typical runs.  Worst-case "
                 "self-stabilization is still lost off the complete graph "
                 "(tests/topology_test.cpp); [57] shows what a real "
                 "generalization takes.)" << std::endl;
  }
  rep.finish();
  return 0;
}
