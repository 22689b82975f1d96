// The exact-model-checking pass of the protocol linter.
//
// Registry entries with a model_attachment expose their configuration
// graph (verify/model_check); run_entry_model() builds and checks it, and
// emit_model_findings() turns the verdicts into findings:
//
//   L014 exhaustive-silence       silence claimed, but a terminal class of
//                                 the configuration digraph keeps moving
//   L015 exhaustive-stabilization self-stabilization claimed, but an
//                                 incorrect configuration is stable
//   L016 expected-time-budget     the *exact* worst-case expected number of
//                                 interactions to stable correctness
//                                 exceeds the entry's declared budget
//   L017 spurious-terminal-class  a terminal class no other configuration
//                                 can enter -- a stable outcome that exists
//                                 only as an initial condition (note, the
//                                 configuration-level analogue of L011)
//
// run_lint() invokes the pass after each entry's check composition and
// keeps every run for protocol_lint's model table and ssr.lint document;
// bench_modelcheck reuses the same two functions, so the two surfaces
// cannot drift.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "analysis/protocol_lint/finding.hpp"
#include "analysis/protocol_lint/registry.hpp"
#include "obs/json.hpp"
#include "verify/model_check/model_check.hpp"

namespace ssr::lint {

/// One completed model check of a registry entry at a population size.
struct model_run {
  std::string protocol;
  std::uint32_t n = 0;
  protocol_claims claims;
  bool has_budget = false;
  double budget = 0.0;
  verify::config_graph graph;
  verify::model_check_result result;
};

/// An entry/n pair the model pass does not cover, with the reason
/// ("no model attachment" or "n exceeds model max_n K").
struct model_skip {
  std::string protocol;
  std::uint32_t n = 0;
  std::string reason;
};

/// Builds and checks `entry`'s configuration graph at population size n;
/// nullopt (with *skip filled when given) when the entry has no attachment
/// or n exceeds its max_n.  Closure violations propagate as
/// std::logic_error from the builder.
std::optional<model_run> run_entry_model(const protocol_entry& entry,
                                         std::uint32_t n,
                                         model_skip* skip = nullptr);

/// Emits L014-L017 for one model run.
void emit_model_findings(const model_run& run, lint_context& ctx);

/// Compact "{a} --(x,y)->(x',y')--> {b}" rendering of a counterexample,
/// truncated to the first `max_steps` interactions.
std::string describe_counterexample(const verify::config_graph& graph,
                                    const verify::counterexample& cx,
                                    std::size_t max_steps = 4);

/// One run as a JSON object: {protocol, n, configurations, transitions,
/// scc_count, terminal_classes, largest_scc, claims, silent,
/// self_stabilizing, spurious_terminal_classes, expected, counterexamples}.
obs::json_value to_json(const model_run& run);

}  // namespace ssr::lint
