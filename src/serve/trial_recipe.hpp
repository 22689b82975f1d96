// One trial's inputs, made from a validated request spec and the trial's
// seed: the protocol, the start configuration, the engine seed and the
// confirmation window.  serve/runner.cpp runs every trial of a request from
// this recipe, and ssr_cli's flag mode runs trial 0 of the one-trial
// request from it, so both front ends give one answer per spec.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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

}  // namespace ssr::serve
