// E16 -- exact expected stabilization times vs empirical simulation.
//
// The model checker (verify/model_check) computes the *exact* expected
// number of interactions to stable correctness by a linear solve on the
// configuration-space Markov chain; this bench cross-checks that analytic
// number end to end against honest simulation of the protocol itself:
// draw every agent's initial state independently and uniformly from the
// declared state inventory (the distribution the exact number weights
// configurations by), run the uniform-pair scheduler on the real
// transition function, and count interactions until the run enters the
// stably correct set.  Agreement gates both directions through
// report_compare's value tolerance plus a tight standard-error band --
// a drift in either the enumerated chain or the solver fails the bench.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/protocol_lint/lint.hpp"
#include "analysis/protocol_lint/model_check.hpp"
#include "analysis/table.hpp"
#include "common.hpp"
#include "obs/report_compare.hpp"
#include "pp/random.hpp"
#include "protocols/optimal_silent.hpp"
#include "protocols/silent_n_state.hpp"

namespace {

using namespace ssr;

/// Runs one trial: per-agent uniform initial states over `all_states`,
/// uniform ordered-pair scheduling through the protocol's own interact(),
/// stopping when the configuration enters the stably correct set (exact
/// expected time 0).  Returns the interaction count.
template <class P>
double empirical_trial(const P& protocol,
                       const std::vector<typename P::agent_state>& all_states,
                       const std::map<std::vector<std::uint32_t>,
                                      std::size_t>& config_index,
                       const std::vector<double>& exact_time, rng_t& rng) {
  const std::uint32_t n = protocol.population_size();
  const std::size_t k = all_states.size();
  std::vector<std::size_t> agent_state(n);
  std::vector<std::uint32_t> counts(k, 0);
  for (std::uint32_t a = 0; a < n; ++a) {
    agent_state[a] = static_cast<std::size_t>(uniform_below(rng, k));
    ++counts[agent_state[a]];
  }
  auto find_state = [&](const typename P::agent_state& s) -> std::size_t {
    for (std::size_t i = 0; i < k; ++i) {
      if (all_states[i] == s) return i;
    }
    throw std::logic_error("empirical trial left the state inventory");
  };
  std::uint64_t interactions = 0;
  // 10^6 interactions is orders of magnitude past the exact worst case at
  // these sizes; hitting it means the chain and the simulation disagree.
  while (interactions < 1'000'000) {
    if (exact_time[config_index.at(counts)] == 0.0) {
      return static_cast<double>(interactions);
    }
    const std::uint32_t i = static_cast<std::uint32_t>(uniform_below(rng, n));
    std::uint32_t j = static_cast<std::uint32_t>(uniform_below(rng, n - 1));
    if (j >= i) ++j;
    typename P::agent_state x = all_states[agent_state[i]];
    typename P::agent_state y = all_states[agent_state[j]];
    protocol.interact(x, y, rng);
    const std::size_t xi = find_state(x);
    const std::size_t yi = find_state(y);
    --counts[agent_state[i]];
    --counts[agent_state[j]];
    ++counts[xi];
    ++counts[yi];
    agent_state[i] = xi;
    agent_state[j] = yi;
    ++interactions;
  }
  throw std::logic_error("empirical trial failed to stabilize");
}

struct gate_result {
  summary stats;
  bool passed = true;
  std::string detail;
};

/// Simulates `trials` runs of the registry entry's protocol and gates the
/// empirical mean against the exact uniform-weighted expectation.
template <class P>
gate_result run_gate(const P& protocol, const lint::model_run& model,
                     std::size_t trials, std::uint64_t seed,
                     bench::reporter& rep) {
  const std::vector<typename P::agent_state> all_states =
      protocol.all_states();
  std::map<std::vector<std::uint32_t>, std::size_t> config_index;
  for (std::size_t i = 0; i < model.graph.configs.size(); ++i) {
    config_index.emplace(model.graph.configs[i], i);
  }
  std::vector<double> samples;
  samples.reserve(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    rng_t rng(derive_seed(seed, t));
    samples.push_back(empirical_trial(protocol, all_states, config_index,
                                      model.result.expected_interactions,
                                      rng));
  }

  const double exact = model.result.uniform_expected_interactions;
  gate_result gate;
  gate.stats = summarize(samples);

  // Copies: each add_* call may reallocate the report's row vector.
  const obs::report_row exact_row = rep.add_value(
      "exact", "exact_expected_interactions", model.protocol, model.n, "",
      exact, "interactions", /*higher_is_better=*/false);
  rep.add_samples("empirical", model.protocol, model.n, "", trials, seed,
                  "interactions", samples);
  // Sections differ so the exact / empirical-mean / sample rows keep
  // distinct join keys (report_diff matches on section, protocol, n,
  // params) and a future run compares each against its own kind.
  const obs::report_row mean_row = rep.add_value(
      "empirical-mean", "empirical_expected_interactions", model.protocol,
      model.n, "", gate.stats.mean, "interactions",
      /*higher_is_better=*/false);

  // Both directions: worsening() is one-sided, so an empirical mean far
  // *below* the exact value must fail the reversed comparison.
  const obs::row_verdict forward = obs::compare_rows(exact_row, mean_row);
  const obs::row_verdict backward = obs::compare_rows(mean_row, exact_row);
  // Statistical teeth: the value tolerance (1/3) is generous, so also
  // require the exact value inside a 5-standard-error band of the mean.
  const double band = 5.0 * gate.stats.stderr_mean + 1e-9;
  if (forward.regression || backward.regression) {
    gate.passed = false;
    gate.detail = forward.regression ? forward.detail : backward.detail;
  } else if (std::abs(gate.stats.mean - exact) > band) {
    gate.passed = false;
    gate.detail = "empirical mean " + format_fixed(gate.stats.mean, 4) +
                  " outside 5-SEM band " + format_fixed(band, 4) +
                  " of exact " + format_fixed(exact, 4);
  }
  return gate;
}

// The verification tuning of tests/verify_test.cpp and the lint registry's
// "optimal" entry: E_max=n, R_max=2, D_max=2.
optimal_silent_ssr::tuning tiny_optimal_tuning(std::uint32_t n) {
  optimal_silent_ssr::tuning t;
  t.e_max = n;
  t.r_max = 2;
  t.d_max = 2;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ssr::bench;

  banner("E16: bench_modelcheck", "Exact configuration-space analysis",
         "analytic expected stabilization times (absorption linear solve) "
         "vs honest protocol simulation, uniform-per-agent initials");
  const bench_args args = parse_bench_args(argc, argv);
  reporter rep(args, "E16", "Exact vs empirical expected stabilization time");

  bool all_passed = true;
  ssr::text_table t({"protocol", "n", "configs", "exact E[T]",
                     "empirical mean ± ci", "trials", "verdict"});

  struct point {
    const char* name;
    std::uint32_t n;
    std::size_t trials;
  };
  // Baseline scales mildly (worst 49.6 interactions at n=5); optimal-tiny
  // configuration spaces grow fast, so its empirical points stay at n<=3.
  const point points[] = {
      {"baseline", 2, 4000}, {"baseline", 3, 4000}, {"baseline", 4, 2000},
      {"baseline", 5, 2000}, {"optimal", 2, 2000},  {"optimal", 3, 1000},
  };
  for (const point& pt : points) {
    const std::size_t trials = args.trials_or(pt.trials);
    const std::uint64_t seed = args.seed_or(0xe16ULL + pt.n);
    const ssr::lint::protocol_entry& entry =
        ssr::lint::resolve_protocol_entry(pt.name);
    const std::optional<ssr::lint::model_run> model =
        ssr::lint::run_entry_model(entry, pt.n);
    if (!model.has_value() || !model->result.expected_time_computed) {
      std::cerr << "model check unavailable for " << pt.name
                << " n=" << pt.n << '\n';
      return 1;
    }
    gate_result gate;
    if (std::string(pt.name) == "baseline") {
      gate = run_gate(ssr::silent_n_state_ssr(pt.n), *model, trials, seed,
                      rep);
    } else {
      gate = run_gate(
          ssr::optimal_silent_ssr(pt.n, tiny_optimal_tuning(pt.n)), *model,
          trials, seed, rep);
    }
    if (!gate.passed) {
      all_passed = false;
      std::cerr << "GATE FAIL " << pt.name << " n=" << pt.n << ": "
                << gate.detail << '\n';
    }
    t.add_row({pt.name, std::to_string(pt.n),
               std::to_string(model->result.configurations),
               format_fixed(model->result.uniform_expected_interactions, 4),
               format_mean_ci(gate.stats.mean, ci95_halfwidth(gate.stats), 4),
               std::to_string(trials), gate.passed ? "ok" : "FAIL"});
  }
  t.print(std::cout);
  std::cout << (all_passed
                    ? "  exact absorption solve and simulation agree on "
                      "every point\n"
                    : "  DRIFT between exact solve and simulation\n");
  rep.finish();
  return all_passed ? 0 : 1;
}
