// Internal instrumentation: tree-size and interaction-cost profile of
// Sublinear-Time-SSR across (n, H), used to size the benchmark sweeps and
// validate the pruning memory bound (DESIGN.md deviation #2).
#include <chrono>
#include <iostream>

#include "pp/convergence.hpp"
#include "pp/engine.hpp"
#include "protocols/adversary.hpp"
#include "protocols/sublinear.hpp"

using namespace ssr;

int main(int argc, char** argv) {
  const std::uint32_t n = argc > 1 ? std::atoi(argv[1]) : 32;
  const std::uint32_t h = argc > 2 ? std::atoi(argv[2]) : 5;
  const int confirm_steps = argc > 3 ? std::atoi(argv[3]) : 0;

  sublinear_time_ssr p(n, h);
  std::cout << "n=" << n << " h=" << h << " t_h=" << p.params().t_h
            << " retention=" << p.params().prune_retention << "\n";
  rng_t rng(1);
  auto init = adversarial_configuration(p, sublinear_scenario::all_same_name, rng);
  direct_engine<sublinear_time_ssr> sim(p, std::move(init), 7);
  const auto no_pre = [](const agent_pair&) {};

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t steps = 0;
  std::size_t max_nodes = 0, cur_nodes = 0;
  const auto count_nodes = [&] {
    cur_nodes = 0;
    for (const auto& s : sim.agents())
      if (s.role == sublinear_time_ssr::role_t::collecting)
        cur_nodes += s.tree.node_count();
    max_nodes = std::max(max_nodes, cur_nodes);
  };
  sim.run(UINT64_MAX, no_pre, [&](const agent_pair&, bool) {
    if (++steps % 64 != 0) return false;
    count_nodes();
    if (is_valid_ranking(p, sim.agents())) return true;
    if (steps > 10'000'000ull) { std::cout << "NO CONVERGENCE\n"; return true; }
    return false;
  });
  const double conv_time = sim.parallel_time();
  std::uint64_t confirmed = 0;
  sim.run(sim.interactions() + std::max(confirm_steps, 0), no_pre,
          [&](const agent_pair&, bool) {
            if (confirmed++ % 256 == 0) count_nodes();
            return false;
          });
  const auto t1 = std::chrono::steady_clock::now();
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  std::cout << "converged at parallel time " << conv_time
            << " (" << steps << " steps), still-valid=" << is_valid_ranking(p, sim.agents())
            << "\nmax total nodes " << max_nodes
            << " (avg/agent " << max_nodes / n << "), steady nodes " << cur_nodes
            << "\nwall " << wall << " s, "
            << wall / static_cast<double>(steps + confirm_steps) * 1e6
            << " us/step\n";
  return 0;
}
