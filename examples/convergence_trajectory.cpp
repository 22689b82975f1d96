// Plots (in plain ASCII) how Optimal-Silent-SSR moves through its phases:
// the settled/unsettled/resetting populations over time, from a corrupted
// start through error detection, the global reset with its dormant leader
// election, and the binary-tree ranking.  Also writes the raw series to
// trajectory.csv for external plotting.
#include <fstream>
#include <iostream>

#include "analysis/timeseries.hpp"
#include "pp/engine.hpp"
#include "protocols/adversary.hpp"
#include "protocols/optimal_silent.hpp"

int main() {
  using namespace ssr;
  constexpr std::uint32_t n = 128;

  optimal_silent_ssr protocol(n);
  rng_t scenario_rng(7);
  auto initial = adversarial_configuration(
      protocol, optimal_silent_scenario::duplicated_ranks, scenario_rng);
  direct_engine<optimal_silent_ssr> sim(protocol, std::move(initial), 11);

  time_series series({"settled", "unsettled", "resetting"});
  auto sample = [&] {
    double counts[3] = {0, 0, 0};
    for (const auto& s : sim.agents())
      ++counts[static_cast<int>(s.role)];
    series.add(sim.parallel_time(), counts);
  };

  sample();
  while (!is_valid_ranking(protocol, sim.agents())) {
    sim.run(sim.interactions() + 64, [](const agent_pair&) {},
            [](const agent_pair&, bool) { return false; });
    sample();
  }

  std::cout << "Optimal-Silent-SSR from a duplicated-ranks start, n = " << n
            << " (stabilized at t = " << sim.parallel_time() << "):\n\n";
  for (std::size_t c = 0; c < series.columns(); ++c)
    std::cout << series.ascii_chart(c, 72, 8) << '\n';

  std::ofstream csv("trajectory.csv");
  csv << series.to_csv();
  std::cout << "full series written to trajectory.csv (" << series.size()
            << " samples)\n"
            << "\nReading the charts: the rank collision is detected almost "
               "immediately (settled drops to 0 as the\nreset propagates), "
               "the population sits Resetting through the dormant election "
               "window, then Reset\nreleases everyone Unsettled and the "
               "settled curve climbs the binary tree to n.\n";
  return 0;
}
