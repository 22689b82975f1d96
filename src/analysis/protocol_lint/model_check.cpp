#include "analysis/protocol_lint/model_check.hpp"

#include <sstream>
#include <utility>

namespace ssr::lint {

std::optional<model_run> run_entry_model(const protocol_entry& entry,
                                         std::uint32_t n, model_skip* skip) {
  if (!entry.model.has_value()) {
    if (skip != nullptr) {
      *skip = {entry.name, n, "no model attachment (state space not "
                              "enumerable at this tuning)"};
    }
    return std::nullopt;
  }
  if (n > entry.model->max_n) {
    if (skip != nullptr) {
      *skip = {entry.name, n,
               "n exceeds model max_n " + std::to_string(entry.model->max_n)};
    }
    return std::nullopt;
  }
  model_run run;
  run.protocol = entry.name;
  run.n = n;
  run.claims = entry.claims;
  if (entry.model->budget) {
    run.has_budget = true;
    run.budget = entry.model->budget(n);
  }
  run.graph = entry.model->build(n);
  run.result = run_model_check(run.graph);
  return run;
}

std::string describe_counterexample(const verify::config_graph& graph,
                                    const verify::counterexample& cx,
                                    std::size_t max_steps) {
  std::ostringstream os;
  if (cx.steps.empty()) {
    os << graph.config_name(cx.witness);
    return os.str();
  }
  os << graph.config_name(cx.steps.front().from_config);
  std::size_t shown = 0;
  for (const verify::counterexample_step& step : cx.steps) {
    if (shown == max_steps) {
      os << " --(" << cx.steps.size() - shown << " more)--> "
         << graph.config_name(cx.steps.back().to_config);
      return os.str();
    }
    os << " --(" << graph.state_labels[step.initiator_state] << ", "
       << graph.state_labels[step.responder_state] << ")--> "
       << graph.config_name(step.to_config);
    ++shown;
  }
  return os.str();
}

void emit_model_findings(const model_run& run, lint_context& ctx) {
  const verify::model_check_result& r = run.result;
  if (run.claims.silent && !r.silent) {
    std::string message =
        "silence claim refuted over all " +
        std::to_string(r.configurations) +
        " configurations: a terminal class keeps interacting";
    if (r.silence_counterexample.has_value()) {
      message += "; shortest cycle: " +
                 describe_counterexample(run.graph, *r.silence_counterexample);
    }
    ctx.emit(finding_code::exhaustive_silence, severity::error,
             std::move(message));
  }
  if (run.claims.self_stabilizing && !r.self_stabilizing) {
    std::string message =
        "self-stabilization claim refuted over all " +
        std::to_string(r.configurations) +
        " configurations: an incorrect configuration is stable";
    if (r.stabilization_counterexample.has_value()) {
      const verify::counterexample& cx = *r.stabilization_counterexample;
      message += cx.steps.empty()
                     ? "; witness (unreachable from any correct "
                       "configuration): " +
                           run.graph.config_name(cx.witness)
                     : "; shortest path from a correct configuration: " +
                           describe_counterexample(run.graph, cx);
    }
    ctx.emit(finding_code::exhaustive_stabilization, severity::error,
             std::move(message));
  }
  if (run.has_budget && r.expected_time_computed &&
      r.worst_expected_interactions > run.budget) {
    std::ostringstream os;
    os << "exact worst-case expected stabilization time "
       << r.worst_expected_interactions << " interactions (from "
       << run.graph.config_name(r.worst_config)
       << ") exceeds the declared budget " << run.budget;
    ctx.emit(finding_code::expected_time_budget, severity::error, os.str());
  }
  for (const std::size_t witness : r.spurious_terminal_witnesses) {
    ctx.emit(finding_code::spurious_terminal_class, severity::note,
             "terminal class of " + run.graph.config_name(witness) +
                 " has no incoming transition from outside the class: the "
                 "stable outcome exists only as an initial condition");
  }
}

obs::json_value to_json(const model_run& run) {
  const verify::model_check_result& r = run.result;
  obs::json_value v = obs::json_value::object();
  v["protocol"] = run.protocol;
  v["n"] = static_cast<std::uint64_t>(run.n);
  v["configurations"] = static_cast<std::uint64_t>(r.configurations);
  v["transitions"] = static_cast<std::uint64_t>(r.transitions);
  v["scc_count"] = static_cast<std::uint64_t>(r.scc_count);
  v["terminal_classes"] = static_cast<std::uint64_t>(r.terminal_classes);
  v["largest_scc"] = static_cast<std::uint64_t>(r.largest_scc);
  obs::json_value claims = obs::json_value::object();
  claims["silent"] = run.claims.silent;
  claims["self_stabilizing"] = run.claims.self_stabilizing;
  v["claims"] = std::move(claims);
  v["silent"] = r.silent;
  v["self_stabilizing"] = r.self_stabilizing;
  obs::json_value spurious = obs::json_value::array();
  for (const std::size_t w : r.spurious_terminal_witnesses) {
    spurious.push_back(run.graph.config_name(w));
  }
  v["spurious_terminal_classes"] = std::move(spurious);
  obs::json_value expected = obs::json_value::object();
  expected["computed"] = r.expected_time_computed;
  if (r.expected_time_computed) {
    expected["worst_interactions"] = r.worst_expected_interactions;
    expected["worst_config"] = run.graph.config_name(r.worst_config);
    expected["uniform_interactions"] = r.uniform_expected_interactions;
    expected["solve_residual"] = r.solve_residual;
  }
  if (run.has_budget) expected["budget_interactions"] = run.budget;
  v["expected"] = std::move(expected);
  obs::json_value counterexamples = obs::json_value::object();
  if (r.silence_counterexample.has_value()) {
    counterexamples["silence"] =
        describe_counterexample(run.graph, *r.silence_counterexample);
  }
  if (r.stabilization_counterexample.has_value()) {
    counterexamples["stabilization"] = describe_counterexample(
        run.graph, *r.stabilization_counterexample);
  }
  v["counterexamples"] = std::move(counterexamples);
  return v;
}

}  // namespace ssr::lint
