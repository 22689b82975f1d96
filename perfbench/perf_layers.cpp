// perf_layers -- the converged-trial benchmark's per-layer driver.
//
// Replays the trials of one `ssr_cli run` bundle through the library's
// public entry points, timing each layer on its own:
//
//   perf_layers setup <scenario.json> <min seconds>
//       times one trial's set-up: protocol construction, start
//       configuration and engine construction, for trial seeds 0, 1, 2, ...
//       of the scenario; no interaction runs.  Set-ups run back to back in
//       batches of 1, 2, 4, ... under one clock window each, until a batch
//       lasts <min seconds>; that batch's seconds per set-up are reported.
//       The earlier batches warm caches and the allocator, and one window
//       per batch keeps clock overhead out of sub-microsecond set-ups.
//
//   perf_layers trace <bundle dir> <scratch dir>
//       for every trial of the bundle: setup as above, the runner's harness
//       over the engine (measure_convergence_run, or loose LE's
//       unique-leader loop), a hook-free replay to the same interaction
//       count (engine.run_s), and the trial's draws from the scheduler alone
//       (scheduler.sample_s); then obs::write_run_bundle of the bundle's own
//       result into <scratch dir> (obs.bundle_write_s).
//
// Trial seeds, seed salts and harness options mirror src/serve/runner.cpp,
// which is what `ssr_cli run` executes; the trace mode checks that mirror
// against the bundle (same convergence sample per trial, same run.json
// bytes) and reports whether every replay ends in the hooked run's
// configuration.  Output is one JSON document on stdout; a failed mirror
// check exits 1.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/bundle.hpp"
#include "obs/json.hpp"
#include "obs/scenario.hpp"
#include "pp/batch_scheduler.hpp"
#include "pp/convergence.hpp"
#include "pp/engine.hpp"
#include "pp/random.hpp"
#include "pp/rng.hpp"
#include "pp/scheduler.hpp"
#include "protocols/adversary.hpp"
#include "protocols/loose_stabilizing.hpp"
#include "protocols/optimal_silent.hpp"
#include "protocols/serialize.hpp"
#include "protocols/silent_n_state.hpp"
#include "protocols/sublinear.hpp"

namespace {

using namespace ssr;
using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "perf_layers: " << message << '\n';
  std::exit(1);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

obs::scenario_doc load_scenario(const std::string& path) {
  std::vector<util::spec_error> errors;
  std::optional<obs::scenario_doc> doc =
      obs::parse_scenario_text(slurp(path), &errors);
  if (!doc.has_value()) {
    std::string message = "invalid scenario " + path;
    for (const util::spec_error& e : errors)
      message += "; " + e.field + ": " + e.message;
    fail(message);
  }
  return *doc;
}

/// Inverts adversary.hpp's to_string over a scenario enum.
template <class Scenario>
Scenario scenario_named(const std::string& name, Scenario last) {
  for (int s = 0; s <= static_cast<int>(last); ++s) {
    if (to_string(static_cast<Scenario>(s)) == name)
      return static_cast<Scenario>(s);
  }
  fail("unknown scenario " + name);
}

/// The ranking protocols' harness as the runner calls it; returns the
/// convergence time, or nullopt when the trial did not converge.
template <class Engine>
std::optional<double> ranking_convergence(Engine& engine,
                                          const util::sim_request_spec& spec,
                                          double confirm_parallel_time) {
  convergence_options opt;
  opt.max_parallel_time = spec.max_time;
  opt.confirm_parallel_time = confirm_parallel_time;
  const convergence_result result = measure_convergence_run(engine, opt);
  if (!result.converged) return std::nullopt;
  return result.convergence_time;
}

// One protocol's trial recipe, as serve/runner.cpp runs it: the protocol,
// the start configuration from rng_t(trial seed), the engine seed salt, and
// the harness that runs the engine to convergence.

struct baseline_recipe {
  using protocol_type = silent_n_state_ssr;
  static constexpr std::uint64_t salt = 0x5bd1e995;
  static protocol_type make(const util::sim_request_spec& spec) {
    return protocol_type(spec.n);
  }
  static auto initial(const protocol_type& p, const util::sim_request_spec&,
                      rng_t& rng) {
    return adversarial_configuration(p, rng);
  }
  template <class Engine>
  static std::optional<double> converge(Engine& engine,
                                        const util::sim_request_spec& spec) {
    return ranking_convergence(engine, spec, 0.0);
  }
};

struct optimal_recipe {
  using protocol_type = optimal_silent_ssr;
  static constexpr std::uint64_t salt = 0x9747b28c;
  static protocol_type make(const util::sim_request_spec& spec) {
    return protocol_type(spec.n);
  }
  static auto initial(const protocol_type& p,
                      const util::sim_request_spec& spec, rng_t& rng) {
    return adversarial_configuration(
        p,
        scenario_named(spec.scenario, optimal_silent_scenario::valid_ranking),
        rng);
  }
  template <class Engine>
  static std::optional<double> converge(Engine& engine,
                                        const util::sim_request_spec& spec) {
    return ranking_convergence(engine, spec, 0.0);
  }
};

struct sublinear_recipe {
  using protocol_type = sublinear_time_ssr;
  static constexpr std::uint64_t salt = 0x85ebca6b;
  static protocol_type make(const util::sim_request_spec& spec) {
    return protocol_type(spec.n, spec.h);
  }
  static auto initial(const protocol_type& p,
                      const util::sim_request_spec& spec, rng_t& rng) {
    return adversarial_configuration(
        p, scenario_named(spec.scenario, sublinear_scenario::valid_ranking),
        rng);
  }
  // Non-silent: correctness must hold for a confirmation window.
  template <class Engine>
  static std::optional<double> converge(Engine& engine,
                                        const util::sim_request_spec& spec) {
    return ranking_convergence(
        engine, spec, 8.0 * std::log2(static_cast<double>(spec.n) + 1.0));
  }
};

struct loose_recipe {
  using protocol_type = loose_stabilizing_le;
  static constexpr std::uint64_t salt = 0;
  static protocol_type make(const util::sim_request_spec& spec) {
    const auto t_max =
        spec.t_max > 0
            ? spec.t_max
            : static_cast<std::uint32_t>(
                  4 * std::ceil(std::log2(static_cast<double>(spec.n))));
    return protocol_type(spec.n, t_max);
  }
  static auto initial(const protocol_type& p, const util::sim_request_spec&,
                      rng_t&) {
    return p.dead_configuration();
  }
  // The runner's unique-leader loop (loose_time_with, private to
  // serve/runner.cpp), rebuilt from the public engine.run and
  // leader_count: bounded bursts whose post hook recounts the leaders
  // after every state change.
  template <class Engine>
  static std::optional<double> converge(Engine& engine,
                                        const util::sim_request_spec& spec) {
    const protocol_type& protocol = engine.protocol();
    const auto max_interactions = static_cast<std::uint64_t>(
        spec.max_time * static_cast<double>(spec.n));
    const std::uint64_t burst = std::max<std::uint64_t>(
        std::uint64_t{spec.n} * 64, std::uint64_t{1} << 22);
    bool done = protocol.leader_count(engine.agents()) == 1;
    while (!done && engine.interactions() < max_interactions) {
      const std::uint64_t budget =
          std::min(max_interactions, engine.interactions() + burst);
      done = engine.run(budget, [](const agent_pair&) {},
                        [&](const agent_pair&, bool changed) {
                          return changed &&
                                 protocol.leader_count(engine.agents()) == 1;
                        });
    }
    if (!done) return std::nullopt;
    return engine.parallel_time();
  }
};

/// Protocol, start configuration and engine for one trial seed, with the
/// two setup layers timed.
template <class Recipe, class Engine>
struct trial_setup {
  std::optional<Engine> engine;
  double config_s = 0.0;
  double build_s = 0.0;

  trial_setup(const util::sim_request_spec& spec, std::uint64_t trial_seed) {
    const auto t0 = clock_type::now();
    typename Recipe::protocol_type protocol = Recipe::make(spec);
    rng_t rng(trial_seed);
    auto initial = Recipe::initial(protocol, spec, rng);
    config_s = seconds_since(t0);
    const auto t1 = clock_type::now();
    engine.emplace(std::move(protocol), std::move(initial),
                   trial_seed ^ Recipe::salt);
    build_s = seconds_since(t1);
  }
};

/// Makes the trial's draws from the engine's scheduler and nothing else,
/// and returns the seconds taken: `interactions_executed` pairs from
/// sample_pair (direct engine) or batch_scheduler::next_batch (block
/// engine).  The count engine picks its pairs by Fenwick descent over its
/// private index, so only its `geometric_draws` skip draws are timed here,
/// at the trial's mean success probability; the descent stays in
/// engine.run_s.
template <class Engine>
double time_sampler(std::uint32_t n, std::uint64_t seed,
                    const obs::engine_counters& counters,
                    std::uint64_t* sink) {
  using P = typename Engine::protocol_type;
  const std::uint64_t executed = counters.interactions_executed;
  rng_t rng(seed);
  std::uint64_t acc = 0;
  const auto t0 = clock_type::now();
  if constexpr (std::is_same_v<Engine, direct_engine<P>>) {
    for (std::uint64_t i = 0; i < executed; ++i) {
      const agent_pair pair = sample_pair(rng, n);
      acc += pair.initiator ^ (std::uint64_t{pair.responder} << 20);
    }
  } else if constexpr (!batch_countable_protocol<P>) {
    batch_scheduler scheduler(n);
    for (std::uint64_t drawn = 0; drawn < executed;) {
      const auto batch = scheduler.next_batch(rng, executed - drawn);
      for (const agent_pair& pair : batch)
        acc += pair.initiator ^ (std::uint64_t{pair.responder} << 20);
      drawn += batch.size();
    }
  } else {
    const double p =
        static_cast<double>(executed) /
        static_cast<double>(executed + counters.certain_nulls_skipped);
    for (std::uint64_t i = 0; i < counters.geometric_draws; ++i)
      acc += geometric_failures(rng, p);
  }
  const double elapsed = seconds_since(t0);
  *sink += acc;
  return elapsed;
}

template <class Recipe, class Engine>
obs::json_value run_setup(const util::sim_request_spec& spec,
                          double min_seconds) {
  std::uint64_t sink = 0;
  std::uint64_t reps = 1;
  double elapsed = 0.0;
  for (;; reps *= 2) {
    const auto t0 = clock_type::now();
    for (std::uint64_t i = 0; i < reps; ++i) {
      const std::uint64_t trial_seed = derive_seed(spec.seed, i);
      typename Recipe::protocol_type protocol = Recipe::make(spec);
      rng_t rng(trial_seed);
      auto initial = Recipe::initial(protocol, spec, rng);
      const Engine engine(std::move(protocol), std::move(initial),
                          trial_seed ^ Recipe::salt);
      sink += engine.population_size();
    }
    elapsed = seconds_since(t0);
    if (elapsed >= min_seconds) break;
  }
  obs::json_value doc = obs::json_value::object();
  doc["setup_s"] = elapsed / static_cast<double>(reps);
  doc["reps"] = reps;
  doc["agents_built"] = sink;
  return doc;
}

std::uint64_t counter_at(const obs::json_value& run_doc, const char* key) {
  const obs::json_value* counters = run_doc.find("engine_counters");
  const obs::json_value* v =
      counters != nullptr ? counters->find(key) : nullptr;
  return v != nullptr ? v->as_uint64() : 0;
}

/// obs::write_run_bundle of the bundle's own result into `scratch`, timed;
/// the rewritten run.json must equal the original byte for byte.
double time_bundle_write(const std::string& bundle_dir,
                         const std::string& scratch,
                         const obs::scenario_doc& scenario,
                         const obs::json_value& run_doc) {
  obs::engine_counters counters;
  counters.interactions_executed =
      counter_at(run_doc, "interactions_executed");
  counters.certain_nulls_skipped =
      counter_at(run_doc, "certain_nulls_skipped");
  counters.transitions_changed = counter_at(run_doc, "transitions_changed");
  counters.fenwick_updates = counter_at(run_doc, "fenwick_updates");
  counters.geometric_draws = counter_at(run_doc, "geometric_draws");
  counters.quiescent_jumps = counter_at(run_doc, "quiescent_jumps");
  counters.batches_drawn = counter_at(run_doc, "batches_drawn");
  counters.shard_rounds = counter_at(run_doc, "shard_rounds");
  std::filesystem::create_directories(scratch);
  std::filesystem::copy_file(
      bundle_dir + "/events.jsonl", scratch + "/events.jsonl",
      std::filesystem::copy_options::overwrite_existing);
  obs::bundle_artifacts artifacts;
  artifacts.events = true;
  const auto t0 = clock_type::now();
  const obs::bundle_result written = obs::write_run_bundle(
      scratch, scenario, *run_doc.find("result"), counters, artifacts);
  const double elapsed = seconds_since(t0);
  if (!written.ok) fail("write_run_bundle: " + written.error);
  if (slurp(scratch + "/run.json") != slurp(bundle_dir + "/run.json"))
    fail("rewritten run.json differs from " + bundle_dir + "/run.json");
  return elapsed;
}

template <class Recipe, class Engine>
obs::json_value run_trace(const util::sim_request_spec& spec,
                          const obs::json_value& samples) {
  using P = typename Recipe::protocol_type;
  const P protocol = Recipe::make(spec);
  obs::json_value trials = obs::json_value::array();
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < spec.trials; ++i) {
    const std::uint64_t trial_seed = derive_seed(spec.seed, i);
    const double sample = samples.at(static_cast<std::size_t>(i)).as_double();
    obs::json_value trial = obs::json_value::object();

    // Hooked run: the runner's harness over the engine.
    trial_setup<Recipe, Engine> hooked(spec, trial_seed);
    trial["config_s"] = hooked.config_s;
    trial["build_s"] = hooked.build_s;
    obs::engine_counters counters;
    hooked.engine->attach_counters(&counters);
    const auto t0 = clock_type::now();
    const std::optional<double> time = Recipe::converge(*hooked.engine, spec);
    trial["hooked_s"] = seconds_since(t0);
    // The runner's sample is this very convergence time; a mismatch means
    // this driver no longer mirrors serve/runner.cpp.
    if (!time.has_value() ||
        std::abs(*time - sample) > 1e-9 * std::max(1.0, std::abs(sample)))
      fail("trial " + std::to_string(i) + " does not reproduce the " +
           "bundle's sample " + std::to_string(sample));
    const std::uint64_t interactions = hooked.engine->interactions();
    const std::string final_config =
        to_text(protocol, hooked.engine->agents());

    // Hook-free replay to the same interaction count.
    trial_setup<Recipe, Engine> replay(spec, trial_seed);
    obs::engine_counters replay_counters;
    replay.engine->attach_counters(&replay_counters);
    const auto t1 = clock_type::now();
    replay.engine->run(interactions, [](const agent_pair&) {},
                       [](const agent_pair&, bool) { return false; });
    trial["run_s"] = seconds_since(t1);
    trial["replay_ok"] =
        replay.engine->interactions() == interactions &&
        to_text(protocol, replay.engine->agents()) == final_config;

    trial["sample_s"] = time_sampler<Engine>(
        spec.n, trial_seed ^ Recipe::salt, counters, &sink);
    trial["executed"] = counters.interactions_executed;
    trial["skipped"] = counters.certain_nulls_skipped;
    trial["changed"] = counters.transitions_changed;
    trial["fenwick_updates"] = counters.fenwick_updates;
    trial["geometric_draws"] = counters.geometric_draws;
    trial["batches_drawn"] = counters.batches_drawn;
    trials.push_back(std::move(trial));
  }
  obs::json_value doc = obs::json_value::object();
  doc["state_bytes"] = static_cast<std::uint64_t>(
      sizeof(typename P::agent_state) * spec.n);
  // Printed so the sampling loops cannot be optimized away.
  doc["sampler_sink"] = sink;
  doc["trials"] = std::move(trials);
  return doc;
}

/// Calls fn.template operator()<Recipe, Engine>() for the spec's protocol
/// and engine.
template <class Fn>
obs::json_value dispatch(const util::sim_request_spec& spec, Fn&& fn) {
  const auto on_engine = [&]<class Recipe>() {
    using P = typename Recipe::protocol_type;
    switch (spec.engine.kind) {
      case engine_kind::direct:
        return fn.template operator()<Recipe, direct_engine<P>>();
      case engine_kind::batched:
        return fn.template operator()<Recipe, batched_engine<P>>();
      case engine_kind::sharded:
        break;
    }
    fail("the sharded engine is not a benchmark workload");
  };
  if (spec.protocol == "baseline") {
    // "direct" baseline runs the accelerated jump simulator, which has no
    // engine layers to split.
    if (spec.engine.kind == engine_kind::direct)
      fail("baseline on the direct engine has no engine layers");
    return on_engine.template operator()<baseline_recipe>();
  }
  if (spec.protocol == "optimal")
    return on_engine.template operator()<optimal_recipe>();
  if (spec.protocol == "sublinear")
    return on_engine.template operator()<sublinear_recipe>();
  if (spec.protocol == "loose")
    return on_engine.template operator()<loose_recipe>();
  fail("unknown protocol " + spec.protocol);
}

int usage() {
  std::cerr << "usage: perf_layers setup <scenario.json> <min seconds>\n"
               "       perf_layers trace <bundle dir> <scratch dir>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) return usage();
  const std::string mode = argv[1];
  if (mode == "setup") {
    const obs::scenario_doc scenario = load_scenario(argv[2]);
    const double min_seconds = std::stod(argv[3]);
    std::cout << dispatch(scenario.spec,
                          [&]<class Recipe, class Engine>() {
                            return run_setup<Recipe, Engine>(scenario.spec,
                                                             min_seconds);
                          })
                     .dump()
              << '\n';
    return 0;
  }
  if (mode == "trace") {
    const std::string bundle_dir = argv[2];
    const obs::scenario_doc scenario =
        load_scenario(bundle_dir + "/scenario.json");
    std::string error;
    const std::optional<obs::json_value> run_doc =
        obs::load_json_file(bundle_dir + "/run.json", &error);
    if (!run_doc.has_value()) fail(error);
    const obs::json_value* result = run_doc->find("result");
    const obs::json_value* samples =
        result != nullptr ? result->find("samples") : nullptr;
    if (samples == nullptr || samples->size() != scenario.spec.trials)
      fail(bundle_dir + "/run.json has no sample per trial");
    obs::json_value doc =
        dispatch(scenario.spec, [&]<class Recipe, class Engine>() {
          return run_trace<Recipe, Engine>(scenario.spec, *samples);
        });
    doc["bundle_write_s"] =
        time_bundle_write(bundle_dir, argv[3], scenario, *run_doc);
    std::cout << doc.dump() << '\n';
    return 0;
  }
  return usage();
}
