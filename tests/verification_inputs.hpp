// Small protocols and tunings that the exhaustive-verification tests share
// (verify_test, scc_test, model_check_test): the Optimal-Silent-SSR tuning
// whose configuration space fits the verifiers, a baseline mutant that is
// not self-stabilizing, and a baseline mutant whose transitions leave its
// declared inventory.
#pragma once

#include <cstdint>
#include <vector>

#include "pp/rng.hpp"
#include "protocols/optimal_silent.hpp"
#include "protocols/silent_n_state.hpp"

namespace ssr {

/// The smallest constants that keep Optimal-Silent-SSR's configuration
/// space tractable.  Self-stabilization (a probability-1 property) must hold
/// for *any* positive constants -- the Theta(n) choices in the paper only
/// buy speed, not correctness.
inline optimal_silent_ssr::tuning verification_tuning(std::uint32_t n) {
  optimal_silent_ssr::tuning t;
  t.e_max = n;
  t.r_max = 2;
  t.d_max = 2;
  return t;
}

/// Protocol 1's inventory: rank 0, ..., rank n-1.
inline std::vector<silent_n_state_ssr::agent_state> rank_inventory(
    std::uint32_t n) {
  std::vector<silent_n_state_ssr::agent_state> states(n);
  for (std::uint32_t r = 0; r < n; ++r) states[r].rank = r;
  return states;
}

/// Protocol 1 with a rank bump of 2 instead of 1.  It preserves rank
/// parity, so from an all-even configuration the odd ranks are unreachable
/// (for even n): NOT self-stabilizing.
struct rank_skipping_baseline {
  using agent_state = silent_n_state_ssr::agent_state;
  std::uint32_t n;
  std::uint32_t population_size() const { return n; }
  bool interact(agent_state& a, agent_state& b, rng_t&) const {
    if (a.rank != b.rank) return false;
    b.rank = (b.rank + 2) % n;  // BUG: should be + 1
    return true;
  }
  std::uint32_t rank_of(const agent_state& s) const { return s.rank + 1; }
  std::vector<agent_state> all_states() const { return rank_inventory(n); }
};

/// Protocol 1 without the wrap-around: a collision at the top rank n-1
/// yields rank n, which is not in the declared inventory {0, ..., n-1}.
struct escaping_baseline {
  using agent_state = silent_n_state_ssr::agent_state;
  std::uint32_t n;
  std::uint32_t population_size() const { return n; }
  bool interact(agent_state& a, agent_state& b, rng_t&) const {
    if (a.rank != b.rank) return false;
    b.rank = b.rank + 1;  // BUG: no wrap
    return true;
  }
  std::uint32_t rank_of(const agent_state& s) const { return s.rank + 1; }
  std::vector<agent_state> all_states() const { return rank_inventory(n); }
};

}  // namespace ssr
