// Reproduces Figure 1: the binary-tree rank assignment of Optimal-Silent-SSR
// with n = 12 agents.
//
// The paper's figure shows a snapshot with 8 settled agents (ranks
// 1,2,3,4,5,6,7,8... shown as the filled part of the tree) and 4 unsettled
// agents waiting to be recruited into the remaining ranks by the settled
// agents with free child slots.  We run the ranking phase from the
// post-reset configuration (one leader, 11 unsettled), pause when exactly 8
// agents are settled, and render the tree; then resume to completion.
#include <iostream>
#include <vector>

#include "pp/engine.hpp"
#include "protocols/optimal_silent.hpp"

namespace {

using namespace ssr;
using role_t = optimal_silent_ssr::role_t;

constexpr std::uint32_t n = 12;

std::size_t settled_count(std::span<const optimal_silent_ssr::agent_state> a) {
  std::size_t count = 0;
  for (const auto& s : a) count += s.role == role_t::settled ? 1 : 0;
  return count;
}

void render_tree(std::span<const optimal_silent_ssr::agent_state> agents) {
  std::vector<bool> settled(n + 1, false);
  for (const auto& s : agents)
    if (s.role == role_t::settled && s.rank >= 1 && s.rank <= n)
      settled[s.rank] = true;

  // Rank r sits at depth floor(log2 r) of the full binary tree; children of
  // r are 2r and 2r+1 (Figure 1).
  std::cout << "  rank tree (" << settled_count(agents) << " settled, "
            << n - settled_count(agents) << " unsettled):\n";
  for (std::uint32_t level_start = 1; level_start <= n; level_start *= 2) {
    std::cout << "    ";
    for (std::uint32_t r = level_start; r < 2 * level_start && r <= n; ++r) {
      std::cout << (settled[r] ? "[" : "(") << r << (settled[r] ? "] " : ") ");
    }
    std::cout << '\n';
  }
  std::cout << "    [r] = rank assigned, (r) = waiting for an unsettled "
               "agent\n";
}

}  // namespace

int main() {
  optimal_silent_ssr protocol(n);

  // Post-reset configuration: the elected leader is Settled with rank 1,
  // everyone else Unsettled (what Protocol 4 produces on awakening).
  std::vector<optimal_silent_ssr::agent_state> config(n);
  config[0].role = role_t::settled;
  config[0].rank = 1;
  config[0].children = 0;
  for (std::uint32_t i = 1; i < n; ++i) {
    config[i].role = role_t::unsettled;
    config[i].errorcount = protocol.params().e_max;
  }

  direct_engine<optimal_silent_ssr> sim(protocol, std::move(config),
                                        /*seed=*/5);
  const auto no_pre = [](const agent_pair&) {};

  std::cout << "Figure 1 reproduction: rank assignment in Optimal-Silent-SSR"
            << " with n = " << n << " agents\n\n";

  sim.run(10'000'000ull, no_pre, [&](const agent_pair&, bool) {
    return settled_count(sim.agents()) >= 8;
  });
  std::cout << "snapshot at parallel time " << sim.parallel_time() << ":\n";
  render_tree(sim.agents());

  sim.run(100'000'000ull, no_pre, [&](const agent_pair&, bool) {
    return is_valid_ranking(protocol, sim.agents());
  });
  std::cout << "\ncompleted at parallel time " << sim.parallel_time()
            << " (expected Theta(n)):\n";
  render_tree(sim.agents());
  return 0;
}
