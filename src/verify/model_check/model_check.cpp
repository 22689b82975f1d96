#include "verify/model_check/model_check.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <ostream>
#include <sstream>

#include "obs/trace.hpp"
#include "pp/assert.hpp"
#include "verify/scc.hpp"

namespace ssr::verify {
namespace {

constexpr std::size_t kNone = SIZE_MAX;

/// Shortest non-null cycle through `witness`, restricted to its (terminal)
/// component: BFS over successors until the walk returns to the witness.
std::vector<counterexample_step> shortest_cycle(const config_graph& graph,
                                                const scc_result& scc,
                                                std::size_t witness) {
  const std::size_t comp = scc.component[witness];
  std::vector<std::size_t> parent(graph.configs.size(), kNone);
  std::vector<const config_edge*> parent_edge(graph.configs.size(), nullptr);
  std::deque<std::size_t> queue;

  auto reconstruct = [&](const config_edge& last,
                         std::size_t last_from) {
    std::vector<counterexample_step> steps;
    steps.push_back({last_from, last.target, last.initiator_state,
                     last.responder_state, last.initiator_after,
                     last.responder_after});
    std::size_t at = last_from;
    while (at != witness) {
      const config_edge* e = parent_edge[at];
      steps.push_back({parent[at], at, e->initiator_state, e->responder_state,
                       e->initiator_after, e->responder_after});
      at = parent[at];
    }
    std::reverse(steps.begin(), steps.end());
    return steps;
  };

  for (const config_edge& e : graph.edges[witness]) {
    if (e.target == witness) {
      // A non-null self-loop (e.g. a state swap) is the shortest hot cycle.
      return reconstruct(e, witness);
    }
  }
  queue.push_back(witness);
  std::vector<bool> seen(graph.configs.size(), false);
  seen[witness] = true;
  while (!queue.empty()) {
    const std::size_t at = queue.front();
    queue.pop_front();
    for (const config_edge& e : graph.edges[at]) {
      if (scc.component[e.target] != comp) continue;
      if (e.target == witness) return reconstruct(e, at);
      if (seen[e.target]) continue;
      seen[e.target] = true;
      parent[e.target] = at;
      parent_edge[e.target] = &e;
      queue.push_back(e.target);
    }
  }
  return {};  // unreachable for a component with at least one edge
}

/// Multi-source BFS from every correct configuration; returns the shortest
/// path into any configuration for which `is_goal` holds, or empty when no
/// correct configuration reaches one.
std::vector<counterexample_step> shortest_escape(
    const config_graph& graph, const std::vector<bool>& is_goal,
    std::size_t* goal_out) {
  const std::size_t num = graph.configs.size();
  std::vector<std::size_t> parent(num, kNone);
  std::vector<const config_edge*> parent_edge(num, nullptr);
  std::vector<bool> seen(num, false);
  std::deque<std::size_t> queue;
  for (std::size_t ci = 0; ci < num; ++ci) {
    if (graph.correct[ci]) {
      seen[ci] = true;
      queue.push_back(ci);
    }
  }
  while (!queue.empty()) {
    const std::size_t at = queue.front();
    queue.pop_front();
    for (const config_edge& e : graph.edges[at]) {
      if (seen[e.target]) continue;
      seen[e.target] = true;
      parent[e.target] = at;
      parent_edge[e.target] = &e;
      if (is_goal[e.target]) {
        std::vector<counterexample_step> steps;
        std::size_t walk = e.target;
        if (goal_out != nullptr) *goal_out = walk;
        while (parent[walk] != kNone) {
          const config_edge* pe = parent_edge[walk];
          steps.push_back({parent[walk], walk, pe->initiator_state,
                           pe->responder_state, pe->initiator_after,
                           pe->responder_after});
          walk = parent[walk];
        }
        std::reverse(steps.begin(), steps.end());
        return steps;
      }
      queue.push_back(e.target);
    }
  }
  return {};
}

/// Marks every configuration that can reach an incorrect configuration
/// (reverse BFS); the complement is the stably correct absorbing set.
std::vector<bool> can_reach_incorrect(const config_graph& graph) {
  const std::size_t num = graph.configs.size();
  std::vector<std::vector<std::size_t>> reverse(num);
  for (std::size_t ci = 0; ci < num; ++ci) {
    for (const config_edge& e : graph.edges[ci]) {
      if (e.target != ci) reverse[e.target].push_back(ci);
    }
  }
  std::vector<bool> bad(num, false);
  std::deque<std::size_t> queue;
  for (std::size_t ci = 0; ci < num; ++ci) {
    if (!graph.correct[ci]) {
      bad[ci] = true;
      queue.push_back(ci);
    }
  }
  while (!queue.empty()) {
    const std::size_t at = queue.front();
    queue.pop_front();
    for (const std::size_t prev : reverse[at]) {
      if (bad[prev]) continue;
      bad[prev] = true;
      queue.push_back(prev);
    }
  }
  return bad;
}

/// Solves the hitting-time system for one transient SCC, given the already
/// solved successor components.  Equations (W = n(n-1) ordered pairs):
///
///   W * t_i = W + null_i * t_i + sum_edges w * t_target
///
/// Internal targets (same SCC) stay unknown; external targets are known.
/// Dense Gaussian elimination with partial pivoting for small components,
/// Gauss-Seidel sweeps beyond the cap.  Returns the max residual.
double solve_component(const config_graph& graph,
                       const std::vector<std::size_t>& members,
                       const std::vector<std::size_t>& local_index,
                       const scc_result& scc, std::size_t comp,
                       const model_check_options& options,
                       std::vector<double>& t) {
  const std::size_t m = members.size();
  const double w_total = static_cast<double>(graph.pair_weight());

  if (m <= options.dense_scc_cap) {
    std::vector<double> matrix(m * m, 0.0);
    std::vector<double> rhs(m, w_total);
    for (std::size_t r = 0; r < m; ++r) {
      const std::size_t ci = members[r];
      matrix[r * m + r] =
          w_total - static_cast<double>(graph.null_weight[ci]);
      for (const config_edge& e : graph.edges[ci]) {
        const double w = static_cast<double>(e.weight);
        if (scc.component[e.target] == comp) {
          matrix[r * m + local_index[e.target]] -= w;
        } else {
          rhs[r] += w * t[e.target];
        }
      }
    }
    // Gaussian elimination, partial pivoting.
    for (std::size_t col = 0; col < m; ++col) {
      std::size_t pivot = col;
      for (std::size_t r = col + 1; r < m; ++r) {
        if (std::abs(matrix[r * m + col]) >
            std::abs(matrix[pivot * m + col])) {
          pivot = r;
        }
      }
      if (pivot != col) {
        for (std::size_t c = col; c < m; ++c) {
          std::swap(matrix[col * m + c], matrix[pivot * m + c]);
        }
        std::swap(rhs[col], rhs[pivot]);
      }
      const double diag = matrix[col * m + col];
      SSR_REQUIRE(diag != 0.0);  // transient SCCs are strictly substochastic
      for (std::size_t r = col + 1; r < m; ++r) {
        const double factor = matrix[r * m + col] / diag;
        if (factor == 0.0) continue;
        for (std::size_t c = col; c < m; ++c) {
          matrix[r * m + c] -= factor * matrix[col * m + c];
        }
        rhs[r] -= factor * rhs[col];
      }
    }
    for (std::size_t r = m; r-- > 0;) {
      double acc = rhs[r];
      for (std::size_t c = r + 1; c < m; ++c) {
        acc -= matrix[r * m + c] * t[members[c]];
      }
      t[members[r]] = acc / matrix[r * m + r];
    }
    return 0.0;
  }

  // Gauss-Seidel fallback for outsized components.
  for (const std::size_t ci : members) t[ci] = 0.0;
  double residual = 0.0;
  for (std::size_t sweep = 0; sweep < options.max_sweeps; ++sweep) {
    residual = 0.0;
    for (const std::size_t ci : members) {
      double self_weight = static_cast<double>(graph.null_weight[ci]);
      double acc = w_total;
      for (const config_edge& e : graph.edges[ci]) {
        if (e.target == ci) {
          self_weight += static_cast<double>(e.weight);
        } else {
          acc += static_cast<double>(e.weight) * t[e.target];
        }
      }
      const double updated = acc / (w_total - self_weight);
      residual = std::max(residual, std::abs(updated - t[ci]));
      t[ci] = updated;
    }
    if (residual < options.iterative_tolerance) break;
  }
  return residual;
}

}  // namespace

std::vector<std::vector<std::size_t>> config_graph::adjacency() const {
  std::vector<std::vector<std::size_t>> targets(configs.size());
  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    for (const config_edge& e : edges[ci]) targets[ci].push_back(e.target);
  }
  return targets;
}

std::string config_graph::config_name(std::size_t config) const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  const std::vector<std::uint32_t>& counts = configs[config];
  for (std::size_t s = 0; s < counts.size(); ++s) {
    if (counts[s] == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << state_labels[s];
    if (counts[s] > 1) os << " x" << counts[s];
  }
  os << '}';
  return os.str();
}

double config_graph::uniform_initial_probability(std::size_t config) const {
  // n! / prod(c_i!) * k^-n, evaluated as a running product to stay within
  // double range at every step.
  double probability = 1.0;
  std::uint32_t placed = 0;
  const double k = static_cast<double>(state_count);
  for (const std::uint32_t count : configs[config]) {
    for (std::uint32_t c = 1; c <= count; ++c) {
      ++placed;
      probability *= static_cast<double>(placed) / static_cast<double>(c);
      probability /= k;
    }
  }
  return probability;
}

model_check_result run_model_check(const config_graph& graph,
                                   const model_check_options& options) {
  const std::size_t num = graph.configs.size();
  model_check_result result;
  result.configurations = num;
  for (const auto& edges : graph.edges) result.transitions += edges.size();

  const terminal_verdict verdict =
      classify_terminal_classes(graph.adjacency(), graph.correct);
  const scc_result& scc = verdict.scc;
  result.scc_count = scc.count;
  for (const std::size_t s : component_sizes(scc)) {
    result.largest_scc = std::max(result.largest_scc, s);
  }
  result.terminal_classes = verdict.terminal_classes;

  // --- silence and stabilization verdicts, first witnesses by index -------
  result.silent = verdict.silent;
  result.self_stabilizing = verdict.self_stabilizing;
  const auto first = [](const std::vector<bool>& flags) {
    return static_cast<std::size_t>(
        std::find(flags.begin(), flags.end(), true) - flags.begin());
  };
  if (!result.silent) {
    counterexample cx;
    cx.kind = counterexample::kind_t::hot_terminal;
    cx.witness = first(verdict.hot_terminal);
    cx.steps = shortest_cycle(graph, scc, cx.witness);
    result.silence_counterexample = std::move(cx);
  }
  if (!result.self_stabilizing) {
    counterexample cx;
    cx.kind = counterexample::kind_t::incorrect_terminal;
    cx.witness = first(verdict.incorrect_terminal);
    std::size_t reached = kNone;
    cx.steps = shortest_escape(graph, verdict.incorrect_terminal, &reached);
    if (reached != kNone) cx.witness = reached;
    result.stabilization_counterexample = std::move(cx);
  }

  // --- spurious terminal classes ------------------------------------------
  if (scc.count > 1) {
    std::vector<bool> external_in(scc.count, false);
    for (std::size_t ci = 0; ci < num; ++ci) {
      for (const config_edge& e : graph.edges[ci]) {
        if (scc.component[e.target] != scc.component[ci]) {
          external_in[scc.component[e.target]] = true;
        }
      }
    }
    std::vector<std::size_t> witness(scc.count, kNone);
    for (std::size_t ci = num; ci-- > 0;) witness[scc.component[ci]] = ci;
    for (std::size_t comp = 0; comp < scc.count; ++comp) {
      if (verdict.terminal[comp] && !external_in[comp]) {
        result.spurious_terminal_witnesses.push_back(witness[comp]);
      }
    }
    std::sort(result.spurious_terminal_witnesses.begin(),
              result.spurious_terminal_witnesses.end());
  }

  // --- exact expected interactions to stable correctness ------------------
  if (!result.self_stabilizing) return result;

  const std::vector<bool> bad = can_reach_incorrect(graph);
  result.expected_time_computed = true;
  result.expected_interactions.assign(num, 0.0);

  // Group the transient configurations per component; component ids are in
  // reverse topological order (verify/scc.hpp), so a forward scan solves
  // every successor before it is referenced.
  std::vector<std::vector<std::size_t>> members(scc.count);
  for (std::size_t ci = 0; ci < num; ++ci) {
    if (bad[ci]) members[scc.component[ci]].push_back(ci);
  }
  std::vector<std::size_t> local_index(num, 0);
  for (std::size_t comp = 0; comp < scc.count; ++comp) {
    if (members[comp].empty()) continue;
    for (std::size_t i = 0; i < members[comp].size(); ++i) {
      local_index[members[comp][i]] = i;
    }
    const double residual =
        solve_component(graph, members[comp], local_index, scc, comp, options,
                        result.expected_interactions);
    result.solve_residual = std::max(result.solve_residual, residual);
  }

  for (std::size_t ci = 0; ci < num; ++ci) {
    if (result.expected_interactions[ci] >
        result.worst_expected_interactions) {
      result.worst_expected_interactions = result.expected_interactions[ci];
      result.worst_config = ci;
    }
    result.uniform_expected_interactions +=
        graph.uniform_initial_probability(ci) *
        result.expected_interactions[ci];
  }
  return result;
}

void write_counterexample_jsonl(std::ostream& os, const config_graph& graph,
                                const counterexample& cx) {
  obs::trace_sink sink;
  const double per_interaction = 1.0 / static_cast<double>(graph.n);
  std::uint64_t interaction = 0;
  sink.emit({obs::trace_event_kind::run_start, 0.0, 0});
  std::size_t at = cx.steps.empty() ? cx.witness : cx.steps.front().from_config;
  for (const counterexample_step& step : cx.steps) {
    ++interaction;
    const double time = static_cast<double>(interaction) * per_interaction;
    if (step.initiator_state != step.initiator_after) {
      sink.emit({obs::trace_event_kind::phase_transition, time, interaction,
                 0, static_cast<std::int32_t>(step.initiator_state),
                 static_cast<std::int32_t>(step.initiator_after)});
    }
    if (step.responder_state != step.responder_after) {
      sink.emit({obs::trace_event_kind::phase_transition, time, interaction,
                 1, static_cast<std::int32_t>(step.responder_state),
                 static_cast<std::int32_t>(step.responder_after)});
    }
    if (graph.correct[at] && !graph.correct[step.to_config]) {
      sink.emit({obs::trace_event_kind::correctness_lost, time, interaction});
    } else if (!graph.correct[at] && graph.correct[step.to_config]) {
      sink.emit({obs::trace_event_kind::convergence, time, interaction});
    }
    at = step.to_config;
  }
  sink.emit({obs::trace_event_kind::run_end,
             static_cast<double>(interaction) * per_interaction, interaction});
  std::vector<std::string_view> phase_names(graph.state_labels.begin(),
                                            graph.state_labels.end());
  sink.write_jsonl(os, phase_names);
}

}  // namespace ssr::verify
