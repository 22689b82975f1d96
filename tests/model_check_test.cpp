// Tests for the exact configuration-space model checker
// (verify/model_check) and its linter surface (analysis/protocol_lint/
// model_check.hpp): exact expected-time values pinned against hand
// computation, conservation invariants of the weighted configuration
// graph, agreement with the boolean reachability verifier, and the broken
// fixtures tripping exactly the L014-L017 codes they were built for.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/protocol_lint/lint.hpp"
#include "analysis/protocol_lint/model_check.hpp"
#include "protocols/initialized.hpp"
#include "protocols/optimal_silent.hpp"
#include "protocols/silent_n_state.hpp"
#include "verification_inputs.hpp"
#include "verify/model_check/config_space.hpp"
#include "verify/model_check/model_check.hpp"
#include "verify/reachability.hpp"

namespace ssr {
namespace {

verify::config_graph baseline_graph(std::uint32_t n) {
  const silent_n_state_ssr p(n);
  return verify::build_ranking_config_graph(p, p.all_states());
}

// Protocol 1 at n=2 has three configurations {00, 01, 11}; the two
// equal-rank ones each move to the correct one with their full pair weight,
// so the expected absorption time is exactly one interaction from either,
// and 1/2 under the uniform initial distribution (the correct configuration
// has probability 1/2).
TEST(ModelCheck, BaselineAtTwoAgentsExactly) {
  const verify::config_graph g = baseline_graph(2);
  const verify::model_check_result r = verify::run_model_check(g);
  EXPECT_EQ(r.configurations, 3u);
  EXPECT_EQ(r.terminal_classes, 1u);
  EXPECT_TRUE(r.silent);
  EXPECT_TRUE(r.self_stabilizing);
  ASSERT_TRUE(r.expected_time_computed);
  EXPECT_DOUBLE_EQ(r.worst_expected_interactions, 1.0);
  EXPECT_NEAR(r.uniform_expected_interactions, 0.5, 1e-12);
  EXPECT_EQ(r.solve_residual, 0.0);
  EXPECT_FALSE(r.silence_counterexample.has_value());
  EXPECT_FALSE(r.stabilization_counterexample.has_value());
  EXPECT_TRUE(r.spurious_terminal_witnesses.empty());
}

TEST(ModelCheck, UniformInitialProbabilitiesSumToOne) {
  for (const std::uint32_t n : {2u, 3u, 4u, 5u}) {
    const verify::config_graph g = baseline_graph(n);
    double total = 0.0;
    for (std::size_t c = 0; c < g.configs.size(); ++c) {
      total += g.uniform_initial_probability(c);
    }
    EXPECT_NEAR(total, 1.0, 1e-12) << "n=" << n;
  }
}

// Every configuration's outgoing mass -- weighted edges plus null pairs --
// must account for all n(n-1) ordered agent pairs.
TEST(ModelCheck, PairWeightsAreConserved) {
  const verify::config_graph g = baseline_graph(4);
  for (std::size_t c = 0; c < g.configs.size(); ++c) {
    std::uint64_t mass = g.null_weight[c];
    for (const verify::config_edge& e : g.edges[c]) mass += e.weight;
    EXPECT_EQ(mass, g.pair_weight()) << g.config_name(c);
  }
}

// The exact expectations satisfy the absorption fixed point
//   W * t_i = W + null_i * t_i + sum_e w_e * t_target(e)
// at every transient configuration, and vanish on the absorbing set.
TEST(ModelCheck, ExpectedTimesSatisfyTheFixedPoint) {
  const verify::config_graph g = baseline_graph(4);
  const verify::model_check_result r = verify::run_model_check(g);
  ASSERT_TRUE(r.expected_time_computed);
  const double w = static_cast<double>(g.pair_weight());
  for (std::size_t c = 0; c < g.configs.size(); ++c) {
    const double t = r.expected_interactions[c];
    if (t == 0.0) continue;
    double rhs = w + static_cast<double>(g.null_weight[c]) * t;
    for (const verify::config_edge& e : g.edges[c]) {
      rhs += static_cast<double>(e.weight) *
             r.expected_interactions[e.target];
    }
    EXPECT_NEAR(w * t, rhs, 1e-7 * w) << g.config_name(c);
  }
}

template <ranking_protocol P>
void expect_model_check_agrees(
    const P& p, const std::vector<typename P::agent_state>& states) {
  const std::uint32_t n = p.population_size();
  const verification_result boolean = verify_self_stabilization(p, states);
  const verify::model_check_result exact =
      verify::run_model_check(verify::build_ranking_config_graph(p, states));
  EXPECT_EQ(exact.configurations, boolean.configurations) << "n=" << n;
  EXPECT_EQ(exact.terminal_classes, boolean.terminal_components) << "n=" << n;
  EXPECT_EQ(exact.silent, boolean.silent) << "n=" << n;
  EXPECT_EQ(exact.self_stabilizing, boolean.self_stabilizing) << "n=" << n;
}

// The model checker and the boolean reachability verifier answer the same
// question; their verdicts and configuration counts must agree.
TEST(ModelCheck, AgreesWithReachabilityVerifier) {
  const silent_n_state_ssr p(4);
  const verification_result boolean =
      verify_self_stabilization(p, p.all_states());
  const verify::model_check_result exact =
      verify::run_model_check(baseline_graph(4));
  EXPECT_EQ(exact.configurations, boolean.configurations);
  EXPECT_EQ(exact.terminal_classes, boolean.terminal_components);
  EXPECT_EQ(exact.silent, boolean.silent);
  EXPECT_EQ(exact.self_stabilizing, boolean.self_stabilizing);

  for (const std::uint32_t n : {2u, 3u, 4u}) {
    const silent_n_state_ssr baseline(n);
    expect_model_check_agrees(baseline, baseline.all_states());
  }
  for (const std::uint32_t n : {2u, 3u}) {
    const optimal_silent_ssr optimal(n, verification_tuning(n));
    expect_model_check_agrees(optimal, optimal.all_states());
  }
  const initialized_leader_election initialized(4);
  expect_model_check_agrees(initialized, initialized.all_states());
  const rank_skipping_baseline mutant{4};
  expect_model_check_agrees(mutant, mutant.all_states());
}

// ---- linter surface ------------------------------------------------------

std::vector<lint::finding> model_findings(const std::string& name,
                                          std::uint32_t n) {
  const lint::protocol_entry& entry = lint::resolve_protocol_entry(name);
  std::vector<lint::finding> findings;
  lint::lint_context ctx(entry.name, n, &findings);
  const std::optional<lint::model_run> run = lint::run_entry_model(entry, n);
  if (run.has_value()) lint::emit_model_findings(*run, ctx);
  return findings;
}

bool has_finding(const std::vector<lint::finding>& findings,
                 lint::finding_code code, lint::severity sev) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const lint::finding& f) {
                       return f.code == code && f.sev == sev;
                     });
}

TEST(ModelCheckLint, VisibleEntriesRaiseNoModelErrors) {
  for (const char* name : {"baseline", "optimal", "loose"}) {
    const std::vector<lint::finding> findings = model_findings(name, 3);
    for (const lint::finding& f : findings) {
      EXPECT_NE(f.sev, lint::severity::error) << to_line(f);
      EXPECT_NE(f.sev, lint::severity::warning) << to_line(f);
    }
  }
}

TEST(ModelCheckLint, HotClassFixtureTripsExhaustiveSilence) {
  const std::vector<lint::finding> findings =
      model_findings("broken-hot-class", 2);
  EXPECT_TRUE(has_finding(findings, lint::finding_code::exhaustive_silence,
                          lint::severity::error));
}

TEST(ModelCheckLint, RegressingRankFixtureTripsExhaustiveStabilization) {
  const std::vector<lint::finding> findings =
      model_findings("broken-regressing-rank", 3);
  EXPECT_TRUE(has_finding(findings,
                          lint::finding_code::exhaustive_stabilization,
                          lint::severity::error));
}

TEST(ModelCheckLint, BudgetFixtureTripsExpectedTimeBudget) {
  const std::vector<lint::finding> findings =
      model_findings("broken-time-budget", 3);
  EXPECT_TRUE(has_finding(findings, lint::finding_code::expected_time_budget,
                          lint::severity::error));
  // The dynamics are the clean baseline's: only the budget claim is broken.
  EXPECT_FALSE(has_finding(findings, lint::finding_code::exhaustive_silence,
                           lint::severity::error));
}

TEST(ModelCheckLint, IsolatedClassFixtureNotesSpuriousTerminal) {
  const std::vector<lint::finding> findings =
      model_findings("broken-isolated-class", 2);
  EXPECT_TRUE(has_finding(findings,
                          lint::finding_code::spurious_terminal_class,
                          lint::severity::note));
  for (const lint::finding& f : findings) {
    EXPECT_NE(f.sev, lint::severity::error) << to_line(f);
  }
}

TEST(ModelCheckLint, HotClassCounterexampleIsACycleAtTheWitness) {
  const lint::protocol_entry& entry =
      lint::resolve_protocol_entry("broken-hot-class");
  const std::optional<lint::model_run> run = lint::run_entry_model(entry, 2);
  ASSERT_TRUE(run.has_value());
  ASSERT_TRUE(run->result.silence_counterexample.has_value());
  const verify::counterexample& cx = *run->result.silence_counterexample;
  EXPECT_EQ(cx.kind, verify::counterexample::kind_t::hot_terminal);
  ASSERT_FALSE(cx.steps.empty());
  EXPECT_EQ(cx.steps.front().from_config, cx.witness);
  EXPECT_EQ(cx.steps.back().to_config, cx.witness);
  // The rendered form names the witness configuration.
  const std::string text = lint::describe_counterexample(run->graph, cx);
  EXPECT_NE(text.find(run->graph.config_name(cx.witness)),
            std::string::npos);

  std::ostringstream trace;
  verify::write_counterexample_jsonl(trace, run->graph, cx);
  EXPECT_NE(trace.str().find("trace_header"), std::string::npos);
  EXPECT_NE(trace.str().find("phase_transition"), std::string::npos);
}

TEST(ModelCheckLint, SkipReasonsNameTheCause) {
  lint::model_skip skip;
  const std::optional<lint::model_run> no_model = lint::run_entry_model(
      lint::resolve_protocol_entry("sublinear-h0"), 2, &skip);
  EXPECT_FALSE(no_model.has_value());
  EXPECT_NE(skip.reason.find("no model attachment"), std::string::npos);

  const std::optional<lint::model_run> too_big = lint::run_entry_model(
      lint::resolve_protocol_entry("baseline"), 9, &skip);
  EXPECT_FALSE(too_big.has_value());
  EXPECT_NE(skip.reason.find("max_n"), std::string::npos);
}

TEST(ModelCheckLint, JsonDocumentCarriesSchemaAndSummary) {
  const lint::protocol_entry& entry = lint::resolve_protocol_entry("baseline");
  std::vector<lint::finding> findings;
  lint::lint_context ctx(entry.name, 3, &findings);
  std::optional<lint::model_run> run = lint::run_entry_model(entry, 3);
  ASSERT_TRUE(run.has_value());
  lint::emit_model_findings(*run, ctx);

  std::vector<lint::model_run> runs;
  runs.push_back(std::move(*run));
  const std::string doc =
      lint::modelcheck_to_json(runs, {}, findings, /*strict=*/true).dump(2);
  EXPECT_NE(doc.find("\"schema\": \"ssr.modelcheck\""), std::string::npos);
  EXPECT_NE(doc.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"worst_interactions\""), std::string::npos);
  EXPECT_NE(doc.find("\"passed\": true"), std::string::npos);
}

}  // namespace
}  // namespace ssr
