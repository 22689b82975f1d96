// Strongly connected components over explicit adjacency lists, and the
// terminal-class verdict built on them.
//
// Both exhaustive verifiers (reachability.hpp over state multisets,
// graph_reachability.hpp over position-aware tuples) and the configuration
// model checker (model_check/) reduce their verdicts to the same graph
// question: which SCCs of a digraph are *terminal* (no edge leaves the
// component), and are they correct and silent?  This header is that shared
// kernel: an iterative Tarjan -- explicit frame stack, so million-vertex
// configuration graphs cannot overflow the call stack -- the
// terminal-component classification, and the one terminal-class verdict.
//
// Component ids are assigned in Tarjan completion order, which is reverse
// topological order of the condensation: for every edge u -> v crossing
// components, component[u] > component[v].  The absorption-time solver in
// model_check/ relies on this (processing components in increasing id
// order visits every successor before its predecessors).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace ssr {

struct scc_result {
  /// Vertex -> component id; ids are dense in [0, count).
  std::vector<std::size_t> component;
  std::size_t count = 0;
};

/// Tarjan's algorithm, iterative.  `adjacency[v]` lists the successors of
/// vertex v (duplicates and self-loops are allowed and do not affect the
/// result).  An empty graph yields zero components.
inline scc_result strongly_connected_components(
    const std::vector<std::vector<std::size_t>>& adjacency) {
  const std::size_t num = adjacency.size();
  scc_result result;
  result.component.assign(num, SIZE_MAX);

  std::vector<std::int64_t> index(num, -1), low(num, 0);
  std::vector<bool> on_stack(num, false);
  std::vector<std::size_t> stack;
  std::size_t next_index = 0;

  struct frame {
    std::size_t v;
    std::size_t edge;
  };
  for (std::size_t root = 0; root < num; ++root) {
    if (index[root] != -1) continue;
    std::vector<frame> call_stack{{root, 0}};
    while (!call_stack.empty()) {
      auto& [v, edge] = call_stack.back();
      if (edge == 0) {
        index[v] = low[v] = static_cast<std::int64_t>(next_index++);
        stack.push_back(v);
        on_stack[v] = true;
      }
      if (edge < adjacency[v].size()) {
        const std::size_t w = adjacency[v][edge++];
        if (index[w] == -1) {
          call_stack.push_back({w, 0});
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], index[w]);
        }
      } else {
        if (low[v] == index[v]) {
          while (true) {
            const std::size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            result.component[w] = result.count;
            if (w == v) break;
          }
          ++result.count;
        }
        const std::size_t child = v;
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const std::size_t parent = call_stack.back().v;
          low[parent] = std::min(low[parent], low[child]);
        }
      }
    }
  }
  return result;
}

/// terminal[c] is true iff no edge leaves component c.  A vertex's
/// self-loop never disqualifies its component: a single silent (or
/// spinning) configuration is exactly the terminal singleton the verifiers
/// test for.
inline std::vector<bool> terminal_components(
    const std::vector<std::vector<std::size_t>>& adjacency,
    const scc_result& scc) {
  std::vector<bool> terminal(scc.count, true);
  for (std::size_t v = 0; v < adjacency.size(); ++v) {
    for (const std::size_t w : adjacency[v]) {
      if (scc.component[w] != scc.component[v]) {
        terminal[scc.component[v]] = false;
      }
    }
  }
  return terminal;
}

/// Per-component vertex counts.
inline std::vector<std::size_t> component_sizes(const scc_result& scc) {
  std::vector<std::size_t> sizes(scc.count, 0);
  for (const std::size_t c : scc.component) ++sizes[c];
  return sizes;
}

/// The terminal-class verdict of a configuration digraph.  Under a
/// scheduler that gives every edge positive probability, the protocol
///
///   stabilizes with probability 1 from every configuration
///     <=>  every terminal class consists of correct configurations;
///   is silent  <=>  every terminal class is one configuration with no
///                   enabled non-null transition.
struct terminal_verdict {
  scc_result scc;
  /// terminal[c]: no edge leaves component c (terminal_components).
  std::vector<bool> terminal;
  std::size_t terminal_classes = 0;
  bool self_stabilizing = true;
  bool silent = true;
  /// Per configuration: inside a terminal class and incorrect -- the
  /// witnesses against self_stabilizing.
  std::vector<bool> incorrect_terminal;
  /// Per configuration: inside a terminal class and still enabled -- the
  /// witnesses against silent.
  std::vector<bool> hot_terminal;
};

/// `adjacency[v]` must list the target of every non-null transition out of
/// configuration v, including one that leads back to v (a state swap is a
/// non-null self-loop in multiset space): a configuration is enabled iff its
/// list is non-empty.  A terminal class of two or more configurations has
/// an edge out of each of them, so "one configuration, nothing enabled"
/// reduces to "nothing enabled" per configuration.
inline terminal_verdict classify_terminal_classes(
    const std::vector<std::vector<std::size_t>>& adjacency,
    const std::vector<bool>& correct) {
  const std::size_t num = adjacency.size();
  terminal_verdict verdict;
  verdict.scc = strongly_connected_components(adjacency);
  verdict.terminal = terminal_components(adjacency, verdict.scc);
  for (const bool t : verdict.terminal) verdict.terminal_classes += t ? 1 : 0;
  verdict.incorrect_terminal.assign(num, false);
  verdict.hot_terminal.assign(num, false);
  for (std::size_t v = 0; v < num; ++v) {
    if (!verdict.terminal[verdict.scc.component[v]]) continue;
    if (!correct[v]) {
      verdict.incorrect_terminal[v] = true;
      verdict.self_stabilizing = false;
    }
    if (!adjacency[v].empty()) {
      verdict.hot_terminal[v] = true;
      verdict.silent = false;
    }
  }
  return verdict;
}

}  // namespace ssr
