// Exhaustive self-stabilization verification over a *non-complete*
// interaction graph.
//
// On a graph, agents are no longer interchangeable (their neighborhoods
// differ), so a configuration is a position-aware state vector -- k^n of
// them rather than multiset-many -- and this verifier enumerates that space
// itself instead of build_config_graph's multisets.  Transitions apply the
// shared transition table (pp/transition_table.hpp) to every oriented edge,
// and the verdict is reachability.hpp's terminal-class verdict
// (classify_terminal_classes in verify/scc.hpp).  This decides, for tiny n,
// whether a protocol stays self-stabilizing off the complete graph -- e.g.
// Silent-n-state-SSR on a 4-ring has silent *incorrect* terminal
// configurations (two equal-rank agents that are not adjacent can never
// meet), which tests/topology_test.cpp exhibits.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "pp/assert.hpp"
#include "pp/graph.hpp"
#include "pp/protocol.hpp"
#include "pp/transition_table.hpp"
#include "verify/scc.hpp"

namespace ssr {

struct graph_verification_result {
  std::size_t configurations = 0;
  bool self_stabilizing = false;
  bool silent = false;
  /// A configuration (state indices, agent-indexed) inside an incorrect
  /// terminal component, when self_stabilizing is false.
  std::optional<std::vector<std::size_t>> counterexample;
};

/// Exhaustively verifies `protocol` under the edge scheduler of `graph`.
/// Deterministic transitions and a complete state inventory are required,
/// exactly as in verify_self_stabilization; a transition that leaves
/// `all_states` throws std::logic_error.
template <ranking_protocol P>
graph_verification_result verify_on_graph(
    const P& protocol, const interaction_graph& graph,
    const std::vector<typename P::agent_state>& all_states,
    std::size_t max_configurations = 2'000'000) {
  const std::uint32_t n = protocol.population_size();
  SSR_REQUIRE(graph.size() == n);
  const std::size_t k = all_states.size();
  const transition_table delta = build_transition_table(protocol, all_states);

  // Enumerate all k^n position-aware configurations.
  std::size_t total = 1;
  for (std::uint32_t i = 0; i < n; ++i) {
    SSR_REQUIRE(total <= max_configurations / k + 1);
    total *= k;
  }
  SSR_REQUIRE(total <= max_configurations);

  auto decode = [&](std::size_t code) {
    std::vector<std::size_t> config(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      config[i] = code % k;
      code /= k;
    }
    return config;
  };
  auto encode = [&](const std::vector<std::size_t>& config) {
    std::size_t code = 0;
    for (std::uint32_t i = n; i > 0; --i) code = code * k + config[i - 1];
    return code;
  };

  std::vector<std::vector<std::size_t>> adjacency(total);
  std::vector<bool> correct(total, false);
  std::vector<typename P::agent_state> expanded(n);
  for (std::size_t code = 0; code < total; ++code) {
    const auto config = decode(code);
    for (const auto& [u, v] : graph.edges()) {
      for (const auto& [i, j] :
           {std::pair<std::uint32_t, std::uint32_t>{u, v},
            std::pair<std::uint32_t, std::uint32_t>{v, u}}) {
        if (delta.is_null(config[i], config[j])) continue;
        auto next = config;
        std::tie(next[i], next[j]) = delta(config[i], config[j]);
        adjacency[code].push_back(encode(next));
      }
    }
    std::sort(adjacency[code].begin(), adjacency[code].end());
    adjacency[code].erase(
        std::unique(adjacency[code].begin(), adjacency[code].end()),
        adjacency[code].end());
    for (std::uint32_t i = 0; i < n; ++i) expanded[i] = all_states[config[i]];
    correct[code] = is_valid_ranking(protocol, expanded);
  }

  const terminal_verdict verdict =
      classify_terminal_classes(adjacency, correct);
  graph_verification_result result;
  result.configurations = total;
  result.self_stabilizing = verdict.self_stabilizing;
  result.silent = verdict.silent;
  const auto witness = std::find(verdict.incorrect_terminal.begin(),
                                 verdict.incorrect_terminal.end(), true);
  if (witness != verdict.incorrect_terminal.end()) {
    result.counterexample = decode(static_cast<std::size_t>(
        witness - verdict.incorrect_terminal.begin()));
  }
  return result;
}

}  // namespace ssr
