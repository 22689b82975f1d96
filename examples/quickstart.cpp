// Quickstart: elect a leader among 50 agents with Optimal-Silent-SSR,
// starting from an adversarially corrupted configuration.
//
// Demonstrates the core public API:
//   1. construct a protocol for a known population size n,
//   2. build a starting configuration (here: adversarial),
//   3. run it on the direct engine (uniform random scheduler) until the
//      ranking is valid,
//   4. read off the ranking / leader once stabilized.
#include <iostream>

#include "pp/convergence.hpp"
#include "pp/engine.hpp"
#include "protocols/adversary.hpp"
#include "protocols/optimal_silent.hpp"

int main() {
  using namespace ssr;
  constexpr std::uint32_t n = 50;

  optimal_silent_ssr protocol(n);

  // The adversary hands us a mid-reset configuration with no leader
  // candidate anywhere -- one of the hard cases for self-stabilization.
  rng_t adversary_rng(2024);
  auto initial = adversarial_configuration(
      protocol, optimal_silent_scenario::all_dormant_followers, adversary_rng);

  std::cout << "population: " << n << " agents, all dormant, no leader\n";

  direct_engine<optimal_silent_ssr> sim(protocol, std::move(initial),
                                        /*seed=*/7);
  // run(budget, pre, post) calls post after every interaction and stops
  // when it returns true.
  const bool done = sim.run(
      /*max_interactions=*/100'000'000ull, [](const agent_pair&) {},
      [&](const agent_pair&, bool) {
        return is_valid_ranking(protocol, sim.agents());
      });

  if (!done) {
    std::cerr << "did not stabilize within the interaction budget\n";
    return 1;
  }

  std::cout << "stabilized after " << sim.interactions() << " interactions ("
            << sim.parallel_time() << " parallel time units)\n";

  for (std::uint32_t i = 0; i < n; ++i) {
    const auto& s = sim.agents()[i];
    if (is_leader(protocol, s))
      std::cout << "agent #" << i << " is the unique leader (rank 1)\n";
  }
  std::cout << "all " << n << " agents hold distinct ranks 1.." << n
            << " -- ranking doubles as naming and leader election.\n";

  // Because the protocol is silent, the configuration is now frozen:
  std::cout << "configuration is silent: "
            << (is_silent_configuration(sim) ? "yes" : "no") << "\n";
  return 0;
}
