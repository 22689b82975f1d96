// The closure-checked transition table of a deterministic protocol over a
// declared state inventory: every ordered state pair (a, b) resolved
// through `interact` once, into inventory indices (a', b').  The exhaustive
// checks (verify/reachability.hpp, verify/graph_reachability.hpp,
// verify/model_check/config_space.hpp) all work from this one table.  The
// protocols they accept never consult the rng argument of `interact`.
//
// A transition whose result is not in the inventory throws
// std::logic_error.  The linter's check_transition_table
// (analysis/protocol_lint/checks.hpp) keeps its own table because it
// reports every escape, throw and change-flag lie as a finding instead.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "pp/rng.hpp"

namespace ssr {

/// Index of `s` in `states`; throws std::logic_error when `s` is not in the
/// inventory.
template <class State>
std::uint32_t inventory_index(const std::vector<State>& states,
                              const State& s) {
  const auto it = std::find(states.begin(), states.end(), s);
  if (it == states.end()) {
    throw std::logic_error("state outside the declared state inventory");
  }
  return static_cast<std::uint32_t>(it - states.begin());
}

/// delta(a, b) = (a', b'): the ordered interaction of initiator state a with
/// responder state b, as inventory indices.
struct transition_table {
  using entry = std::pair<std::uint32_t, std::uint32_t>;

  std::size_t k = 0;
  std::vector<entry> delta;  // k*k, row-major by initiator

  entry operator()(std::size_t a, std::size_t b) const {
    return delta[a * k + b];
  }
  /// The pair (a, b) leaves both states as they are.
  bool is_null(std::size_t a, std::size_t b) const {
    const auto [a2, b2] = (*this)(a, b);
    return a2 == a && b2 == b;
  }
};

/// Resolves `protocol`'s transition function over every ordered pair of
/// `states`.  Throws std::logic_error when a transition leaves the
/// inventory.
template <class P>
transition_table build_transition_table(
    const P& protocol, const std::vector<typename P::agent_state>& states) {
  const std::size_t k = states.size();
  transition_table table{k, std::vector<transition_table::entry>(k * k)};
  rng_t dummy_rng(0);  // protocols under verification never consult it
  P probe = protocol;
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = 0; b < k; ++b) {
      typename P::agent_state x = states[a];
      typename P::agent_state y = states[b];
      probe.interact(x, y, dummy_rng);
      table.delta[a * k + b] = {inventory_index(states, x),
                                inventory_index(states, y)};
    }
  }
  return table;
}

}  // namespace ssr
