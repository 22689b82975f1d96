// Exhaustive verification of self-stabilization for small populations.
//
// Self-stabilization is a probability-1 claim over *every* starting
// configuration.  For a finite protocol this is decidable: view the set of
// configurations (multisets of agent states -- agents are anonymous, so
// counts are a sufficient description) as a digraph with an edge C -> C'
// whenever some ordered agent pair's transition takes C to C'.  Under the
// uniform random scheduler every edge has positive probability, so
//
//   the protocol stabilizes with probability 1 from every configuration
//     <=>  every terminal (bottom) strongly connected component of the
//          configuration digraph consists of correct configurations,
//
// and it is additionally *silent* iff every terminal component is a single
// configuration with no non-null transition.  verify_self_stabilization is
// the boolean face of that analysis: the multiset digraph comes from
// build_ranking_config_graph (verify/model_check/config_space.hpp, the one
// enumeration of the space) and the verdict from classify_terminal_classes
// (verify/scc.hpp, shared with the model checker and the graph verifier).
// tests/verify_test.cpp uses it to machine-check Theorem 4.1's
// stabilization claim (and Protocol 1's) at small n, and to reject
// protocols that are *not* self-stabilizing (the initialized
// (l,l)->(l,f) protocol; mutated baselines).
//
// Requirements on the protocol: deterministic transitions (the rng argument
// of interact() is not consulted -- true for Protocols 1 and 3/4 and the
// initialized contrast protocol), plus an exhaustive state inventory.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "pp/protocol.hpp"
#include "verify/model_check/config_space.hpp"
#include "verify/scc.hpp"

namespace ssr {

struct verification_options {
  /// Hard cap on explored configurations (guards against accidentally huge
  /// state inventories).
  std::size_t max_configurations = 2'000'000;
};

struct verification_result {
  /// Number of distinct configurations (multisets) in the space.
  std::size_t configurations = 0;
  /// Number of terminal strongly connected components.
  std::size_t terminal_components = 0;
  /// Every terminal component consists of correct configurations: the
  /// protocol reaches a stably correct configuration with probability 1
  /// from every starting configuration.
  bool self_stabilizing = false;
  /// Every terminal component is a single silent configuration.
  bool silent = false;
  /// A witness configuration inside an incorrect terminal component, when
  /// self_stabilizing is false: the state multiset as sorted indices into
  /// the inventory, lexicographically first among all such witnesses.
  std::optional<std::vector<std::size_t>> counterexample;
};

/// Exhaustively verifies `protocol` for its population size n.
/// `all_states` must list every reachable agent state (a superset is fine;
/// unreachable states only enlarge the search).  Transitions must be
/// deterministic; one that leaves `all_states` throws std::logic_error.
/// Correctness is is_valid_ranking.
template <ranking_protocol P>
verification_result verify_self_stabilization(
    const P& protocol, const std::vector<typename P::agent_state>& all_states,
    const verification_options& options = {}) {
  const verify::config_graph graph = verify::build_ranking_config_graph(
      protocol, all_states, {}, {options.max_configurations});
  const terminal_verdict verdict =
      classify_terminal_classes(graph.adjacency(), graph.correct);

  verification_result result;
  result.configurations = graph.configs.size();
  result.terminal_components = verdict.terminal_classes;
  result.self_stabilizing = verdict.self_stabilizing;
  result.silent = verdict.silent;
  for (std::size_t ci = 0; ci < graph.configs.size(); ++ci) {
    if (!verdict.incorrect_terminal[ci]) continue;
    std::vector<std::size_t> sorted;
    for (std::size_t s = 0; s < graph.state_count; ++s) {
      sorted.insert(sorted.end(), graph.configs[ci][s], s);
    }
    if (!result.counterexample || sorted < *result.counterexample) {
      result.counterexample = std::move(sorted);
    }
  }
  return result;
}

}  // namespace ssr
