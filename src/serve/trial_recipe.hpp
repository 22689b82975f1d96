// One trial's inputs, made from a validated request spec and the trial's
// seed: the protocol, the start configuration, the engine seed and the
// confirmation window; and run_trial, the one function that runs them.
// serve/runner.cpp runs every trial of a request through run_trial, and so
// do the bench helpers (bench/common.cpp), which set their own inputs on
// the recipe's fields.  ssr_cli's flag mode runs trial 0 of the one-trial
// request from the same recipe, so every front end gives one answer per
// spec.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "pp/convergence.hpp"
#include "pp/engine.hpp"
#include "pp/rng.hpp"
#include "protocols/adversary.hpp"
#include "protocols/loose_stabilizing.hpp"
#include "protocols/optimal_silent.hpp"
#include "protocols/silent_n_state.hpp"
#include "protocols/sublinear.hpp"
#include "util/request_spec.hpp"

namespace ssr::serve {

template <class P>
struct trial_recipe {
  P protocol;
  /// The start configuration, drawn from rng_t(trial seed).
  std::vector<typename P::agent_state> initial;
  /// The engine's seed: the trial seed with the protocol's salt.
  std::uint64_t engine_seed = 0;
  /// How long correctness must hold (convergence_options).
  double confirm_parallel_time = 0.0;
  /// Why a trial that does not converge within max_time fails.
  const char* failure = "";
};

namespace detail {

// Scenario names were validated by util::spec_builder, so the lookup
// cannot fail on front-end input; the throw guards direct library callers.
template <class Scenario>
Scenario scenario_of(const util::sim_request_spec& spec) {
  if (const auto scenario = scenario_named<Scenario>(spec.scenario))
    return *scenario;
  throw std::runtime_error("unvalidated " + spec.protocol +
                           " scenario: " + spec.scenario);
}

}  // namespace detail

/// Builds the recipe of the trial seeded `seed` for `spec` and returns
/// fn(recipe), where the recipe is a trial_recipe<P> for the spec's
/// protocol P.
template <class Fn>
decltype(auto) with_trial_recipe(const util::sim_request_spec& spec,
                                 std::uint64_t seed, Fn&& fn) {
  rng_t rng(seed);
  if (spec.protocol == "baseline") {
    silent_n_state_ssr protocol(spec.n);
    auto initial = adversarial_configuration(protocol, rng);
    return fn(trial_recipe<silent_n_state_ssr>{
        .protocol = std::move(protocol),
        .initial = std::move(initial),
        .engine_seed = seed ^ 0x5bd1e995,
        .failure = "baseline did not converge within max_time"});
  }
  if (spec.protocol == "optimal") {
    optimal_silent_ssr protocol(spec.n);
    auto initial = adversarial_configuration(
        protocol, detail::scenario_of<optimal_silent_scenario>(spec), rng);
    return fn(trial_recipe<optimal_silent_ssr>{
        .protocol = std::move(protocol),
        .initial = std::move(initial),
        .engine_seed = seed ^ 0x9747b28c,
        .failure = "optimal-silent did not converge within max_time"});
  }
  if (spec.protocol == "sublinear") {
    sublinear_time_ssr protocol(spec.n, spec.h);
    auto initial = adversarial_configuration(
        protocol, detail::scenario_of<sublinear_scenario>(spec), rng);
    // The protocol is non-silent; hold correctness for a confirmation
    // window scaled like the bench sweeps do.
    return fn(trial_recipe<sublinear_time_ssr>{
        .protocol = std::move(protocol),
        .initial = std::move(initial),
        .engine_seed = seed ^ 0x85ebca6b,
        .confirm_parallel_time =
            8.0 * std::log2(static_cast<double>(spec.n) + 1.0),
        .failure = "sublinear did not converge within max_time"});
  }
  if (spec.protocol == "loose") {
    const auto t_max =
        spec.t_max > 0
            ? spec.t_max
            : static_cast<std::uint32_t>(
                  4 * std::ceil(std::log2(static_cast<double>(spec.n))));
    loose_stabilizing_le protocol(spec.n, t_max);
    auto initial = protocol.dead_configuration();
    // Loose stabilization keeps its leader only for a finite holding time,
    // so the measurement is the first entry into exactly one leader: no
    // confirmation window.
    return fn(trial_recipe<loose_stabilizing_le>{
        .protocol = std::move(protocol),
        .initial = std::move(initial),
        .engine_seed = seed,
        .failure = "loose LE found no unique leader within max_time"});
  }
  throw std::runtime_error("unvalidated protocol: " + spec.protocol);
}

namespace detail {

// Baseline on engine "direct": truly direct stepping of the Theta(n^2)-time
// baseline is Theta(n^3) interactions, so "direct" has always meant the
// protocol-specialized exact jump simulator, run from the recipe's start
// configuration and engine seed.
inline double jump_trial(const trial_recipe<silent_n_state_ssr>& recipe,
                         const convergence_options& opt) {
  const std::uint32_t n = recipe.protocol.population_size();
  std::vector<std::uint32_t> ranks;
  ranks.reserve(n);
  for (const auto& s : recipe.initial) ranks.push_back(s.rank);
  accelerated_silent_n_state sim(n, ranks, recipe.engine_seed);
  sim.attach_counters(opt.counters);
  bool stable = false;
  {
    // The jump simulator has no engine hooks; give the profile a section
    // and the trace its run framing.
    obs::timeline_scope scope(
        opt.profiler != nullptr ? opt.profiler : obs::profiler_default(),
        "accelerated.run");
    stable = sim.run_until_stable(
        static_cast<std::uint64_t>(opt.max_parallel_time *
                                   static_cast<double>(n)),
        opt.cancel);
  }
  if (opt.trace != nullptr) {
    opt.trace->emit({obs::trace_event_kind::run_start, 0.0, 0});
    if (stable) {
      opt.trace->emit({obs::trace_event_kind::convergence,
                       sim.parallel_time(), sim.interactions()});
    }
    opt.trace->emit({obs::trace_event_kind::run_end, sim.parallel_time(),
                     sim.interactions()});
  }
  if (!stable) throw std::runtime_error(recipe.failure);
  return sim.parallel_time();
}

}  // namespace detail

/// Runs one trial of `recipe` on the engine `engine` names and returns its
/// convergence time.  `opt` gives the cap and the telemetry; the recipe
/// gives the confirmation window.  Baseline on "direct" runs the jump
/// simulator, every other pairing measure_convergence_with.  Throws
/// recipe.failure when the trial does not converge within
/// opt.max_parallel_time.
template <class P>
double run_trial(trial_recipe<P> recipe, engine_spec engine,
                 convergence_options opt) {
  opt.confirm_parallel_time = recipe.confirm_parallel_time;
  if constexpr (std::is_same_v<P, silent_n_state_ssr>) {
    if (engine.kind == engine_kind::direct)
      return detail::jump_trial(recipe, opt);
  }
  const convergence_result result = measure_convergence_with(
      engine, std::move(recipe.protocol), std::move(recipe.initial),
      recipe.engine_seed, opt);
  if (!result.converged) throw std::runtime_error(recipe.failure);
  return result.convergence_time;
}

}  // namespace ssr::serve
