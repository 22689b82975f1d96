// Builds the multiset configuration graph of a concrete protocol.
//
// This is the typed half of the model checker (model_check.hpp) and the one
// enumeration of the multiset space: verify_self_stabilization
// (verify/reachability.hpp) builds its digraph here too.  It resolves the
// protocol's transition function over the declared state inventory with
// build_transition_table (pp/transition_table.hpp, which enforces closure),
// enumerates every size-n multiset over the k inventory states, and
// materializes the weighted configuration digraph the untyped analysis
// consumes.  Requirements: deterministic transitions (the rng is never
// consulted) and an exhaustive state inventory.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pp/assert.hpp"
#include "pp/protocol.hpp"
#include "pp/transition_table.hpp"
#include "verify/model_check/model_check.hpp"

namespace ssr::verify {

struct config_space_options {
  /// Hard cap on enumerated configurations (guards against accidentally
  /// huge state inventories).
  std::size_t max_configurations = 2'000'000;
};

/// State-index labeler for config_graph::state_labels; defaults to
/// "state #i" when the caller has no protocol-vocabulary rendering.
using state_label_fn = std::function<std::string(std::size_t)>;

/// Builds the configuration graph of `protocol` over `all_states`, with
/// `correct` evaluated on expanded state vectors (sorted by inventory
/// index).  Configurations are indexed in ascending lexicographic order of
/// their count vectors.  Throws std::logic_error when a transition escapes
/// the declared inventory (closure violation).
template <class P>
config_graph build_config_graph(
    const P& protocol, const std::vector<typename P::agent_state>& all_states,
    const std::function<bool(const std::vector<typename P::agent_state>&)>&
        correct,
    const state_label_fn& label = {},
    const config_space_options& options = {}) {
  using state_t = typename P::agent_state;
  const std::uint32_t n = protocol.population_size();
  SSR_REQUIRE(n >= 2);
  SSR_REQUIRE(!all_states.empty());
  const std::size_t k = all_states.size();

  config_graph graph;
  graph.n = n;
  graph.state_count = k;
  graph.state_labels.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    graph.state_labels.push_back(label ? label(i)
                                       : "state #" + std::to_string(i));
  }

  const transition_table delta = build_transition_table(protocol, all_states);

  // --- enumerate all count vectors summing to n ---------------------------
  std::vector<std::uint32_t> current(k, 0);
  const std::function<void(std::size_t, std::uint32_t)> enumerate =
      [&](std::size_t state, std::uint32_t remaining) {
        if (state + 1 == k) {
          current[state] = remaining;
          graph.configs.push_back(current);
          SSR_REQUIRE(graph.configs.size() <= options.max_configurations);
          return;
        }
        for (std::uint32_t c = 0; c <= remaining; ++c) {
          current[state] = c;
          enumerate(state + 1, remaining - c);
        }
        current[state] = 0;
      };
  enumerate(0, n);

  // --- weighted edges: every ordered state pair present in the config ----
  // The enumeration above is in ascending lexicographic order, so a binary
  // search over graph.configs finds a successor's index.
  const std::size_t num = graph.configs.size();
  graph.edges.resize(num);
  graph.null_weight.assign(num, 0);
  graph.correct.assign(num, false);
  std::vector<std::uint32_t> present;  // states with a positive count
  std::vector<std::uint32_t> next(k);
  std::vector<state_t> expanded(n);
  for (std::size_t ci = 0; ci < num; ++ci) {
    const std::vector<std::uint32_t>& counts = graph.configs[ci];
    present.clear();
    for (std::uint32_t s = 0; s < k; ++s) {
      if (counts[s] > 0) present.push_back(s);
    }
    for (const std::uint32_t a : present) {
      for (const std::uint32_t b : present) {
        const std::uint32_t responders = counts[b] - (a == b ? 1u : 0u);
        if (responders == 0) continue;
        const std::uint64_t weight =
            static_cast<std::uint64_t>(counts[a]) * responders;
        const auto [a2, b2] = delta(a, b);
        if (a2 == a && b2 == b) {
          graph.null_weight[ci] += weight;
          continue;
        }
        next = counts;
        --next[a];
        --next[b];
        ++next[a2];
        ++next[b2];
        const auto target = std::lower_bound(graph.configs.begin(),
                                             graph.configs.end(), next);
        graph.edges[ci].push_back(
            {static_cast<std::size_t>(target - graph.configs.begin()), weight,
             a, b, a2, b2});
      }
    }
    std::size_t slot = 0;
    for (const std::uint32_t s : present) {
      for (std::uint32_t c = 0; c < counts[s]; ++c) {
        expanded[slot++] = all_states[s];
      }
    }
    graph.correct[ci] = correct(expanded);
  }
  return graph;
}

/// Convenience wrapper for ranking protocols: correctness is
/// is_valid_ranking (the output map is a permutation of 1..n).
template <ranking_protocol P>
config_graph build_ranking_config_graph(
    const P& protocol, const std::vector<typename P::agent_state>& all_states,
    const state_label_fn& label = {},
    const config_space_options& options = {}) {
  return build_config_graph<P>(
      protocol, all_states,
      [&protocol](const std::vector<typename P::agent_state>& config) {
        return is_valid_ranking(protocol, config);
      },
      label, options);
}

}  // namespace ssr::verify
