// Scenario from the paper's introduction: a fleet of passively mobile
// sensors in a harsh environment needs a coordinator at all times, but
// suffers bursts of transient memory faults that cannot be detected or
// re-initialized.  A self-stabilizing leader election layer recovers a
// unique coordinator after every burst, automatically.
//
// We run Optimal-Silent-SSR on 64 sensors, inject three fault bursts of
// increasing severity (up to full memory corruption of every sensor), and
// report the recovery time of each.
#include <iostream>

#include "analysis/table.hpp"
#include "pp/engine.hpp"
#include "pp/random.hpp"
#include "protocols/adversary.hpp"
#include "protocols/optimal_silent.hpp"

namespace {

using namespace ssr;

constexpr std::uint32_t n = 64;

/// Runs `sim` until its ranking is valid again, or `max_interactions`.
void run_until_stabilized(direct_engine<optimal_silent_ssr>& sim,
                          std::uint64_t max_interactions) {
  sim.run(max_interactions, [](const agent_pair&) {},
          [&](const agent_pair&, bool) {
            return is_valid_ranking(sim.protocol(), sim.agents());
          });
}

}  // namespace

int main() {
  optimal_silent_ssr protocol(n);

  // Deploy: sensors boot Unsettled (a clean start, for once).
  direct_engine<optimal_silent_ssr> sim(
      protocol, protocol.initial_configuration(), /*seed=*/11);
  run_until_stabilized(sim, 1'000'000'000ull);
  std::cout << "deployment: coordinator elected after "
            << format_fixed(sim.parallel_time(), 1) << " time units\n\n";

  text_table report({"fault burst", "sensors corrupted", "recovery time",
                     "unique coordinator"});

  rng_t fault_rng(1337);
  const std::uint32_t burst_sizes[] = {4, 24, 64};
  for (int burst = 0; burst < 3; ++burst) {
    // Corrupt random sensors with arbitrary memory contents.
    const std::uint32_t victims = burst_sizes[burst];
    for (std::uint32_t v = 0; v < victims; ++v) {
      const auto idx = uniform_below(fault_rng, n);
      sim.mutable_agents()[idx] = adversarial_configuration(
          protocol, optimal_silent_scenario::uniform_random, fault_rng)[0];
    }
    const double before = sim.parallel_time();
    run_until_stabilized(sim, sim.interactions() + 4'000'000'000ull);
    const double recovery = sim.parallel_time() - before;
    report.add_row({std::to_string(burst + 1), std::to_string(victims),
                    format_fixed(recovery, 1) + " time units",
                    leader_count(protocol, sim.agents()) == 1 ? "yes" : "NO"});
  }
  report.print(std::cout);

  std::cout << "\nEven complete memory corruption of all " << n
            << " sensors recovers in O(n) time without any\n"
               "out-of-band re-initialization -- the self-stabilization "
               "guarantee of Theorem 4.1.\n";
  return 0;
}
