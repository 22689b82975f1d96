// One trial's inputs, made from a validated request spec and the trial's
// seed: the protocol, the start configuration, the engine seed and the
// confirmation window; and run_trial, the one function that runs them.
// serve/runner.cpp runs every trial of a request through run_trial, and so
// do the bench helpers (bench/common.cpp), which set their own inputs on
// the recipe's fields.  ssr_cli's flag mode runs trial 0 of the one-trial
// request from the same recipe, so every front end gives one answer per
// spec.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
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
#include "protocols/runnable.hpp"
#include "protocols/silent_n_state.hpp"
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

/// Builds the recipe of the trial seeded `seed` for `spec` and returns
/// fn(recipe), where the recipe is a trial_recipe<P> for the class P of the
/// spec's protocol (protocols/runnable.hpp).
template <class Fn>
decltype(auto) with_trial_recipe(const util::sim_request_spec& spec,
                                 std::uint64_t seed, Fn&& fn) {
  return with_protocol(spec.protocol, [&](auto d) -> decltype(auto) {
    using D = decltype(d);
    // Every front end validates scenario names (util/request_spec.hpp), so
    // the lookup cannot fail on their input; the throw guards direct
    // library callers.
    const auto scenario = std::find(std::begin(D::scenarios),
                                    std::end(D::scenarios), spec.scenario);
    if (scenario == std::end(D::scenarios))
      throw std::runtime_error("unvalidated " + spec.protocol +
                               " scenario: " + spec.scenario);
    rng_t rng(seed);
    typename D::protocol_type protocol =
        D::make(spec.n, spec.parameter(D::parameter));
    auto initial = D::start(
        protocol,
        static_cast<std::size_t>(scenario - std::begin(D::scenarios)), rng);
    return fn(trial_recipe<typename D::protocol_type>{
        .protocol = std::move(protocol),
        .initial = std::move(initial),
        .engine_seed = seed ^ D::salt,
        .confirm_parallel_time = D::confirm_parallel_time(spec.n),
        .failure = D::failure});
  });
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
