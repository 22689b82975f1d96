// The serve runner (serve/runner.hpp) runs every protocol's trials through
// the one run core, pp/convergence.hpp, except baseline on "direct", which
// runs the exact jump simulator.  Loose LE's samples stay pinned to the
// values its former private loop produced; a traced loose trial is run
// framing plus the convergence marker; a fired cancel token aborts a loose
// trial; and a cancel token that never fires changes no sample on any
// engine path but sublinear's block path.  The jump simulator keeps its
// samples, honours max_time and the token, and traces its real interaction
// count.
// Every runnable protocol's listed scenarios build their trial recipes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/engine_counters.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pp/cancellation.hpp"
#include "pp/convergence.hpp"
#include "protocols/loose_stabilizing.hpp"
#include "protocols/silent_n_state.hpp"
#include "serve/request_context.hpp"
#include "serve/runner.hpp"
#include "serve/trial_recipe.hpp"
#include "util/request_spec.hpp"

namespace ssr::serve {
namespace {

util::sim_request_spec make_spec(const char* protocol, const char* scenario,
                                 std::uint32_t n, std::uint64_t trials,
                                 std::uint64_t seed, engine_kind engine) {
  util::sim_request_spec spec;
  spec.protocol = protocol;
  spec.scenario = scenario;
  spec.n = n;
  spec.trials = trials;
  spec.seed = seed;
  spec.max_time = 1e6;
  spec.engine = engine;
  return spec;
}

util::sim_request_spec loose_spec(engine_kind engine) {
  return make_spec("loose", "dead_configuration", 100, 3, 21, engine);
}

struct run_output {
  std::vector<double> samples;
  obs::json_value counters;
};

run_output run(const util::sim_request_spec& spec,
               const cancel_token* cancel = nullptr,
               request_telemetry* telemetry = nullptr) {
  obs::engine_counters counters;
  const auto doc = run_simulation(spec, cancel, nullptr, telemetry, &counters);
  run_output out;
  for (const obs::json_value& v : doc->find("samples")->items())
    out.samples.push_back(v.as_double());
  out.counters = obs::to_json(counters);
  return out;
}

TEST(Runner, LooseSamplesArePinned) {
  // Captured from the runner's private loose loop before loose LE moved
  // onto the run core.  The block scheduler emits sample_pair's stream and
  // loose LE draws no randomness of its own, so both engines agree.
  for (const engine_kind engine : {engine_kind::direct, engine_kind::batched}) {
    const run_output out = run(loose_spec(engine));
    EXPECT_EQ(out.samples, (std::vector<double>{80.85, 73.62, 76.63}))
        << to_string(engine);
    EXPECT_EQ(out.counters.find("interactions_executed")->as_uint64(), 23110u)
        << to_string(engine);

    util::sim_request_spec spec = make_spec("loose", "dead_configuration", 64,
                                            4, 5, engine);
    spec.t_max = 12;
    EXPECT_EQ(run(spec).samples,
              (std::vector<double>{88.75, 75.375, 49.109375, 25.6875}))
        << to_string(engine);
  }
}

TEST(Runner, TracedLooseTrialIsRunFramingOnly) {
  util::sim_request_spec spec =
      make_spec("loose", "dead_configuration", 64, 4, 5, engine_kind::batched);
  spec.t_max = 12;
  util::telemetry_spec options;
  options.trace = true;
  request_telemetry telemetry(options);
  run(spec, nullptr, &telemetry);
  // The first trial is traced: it converges at interaction 5680.
  EXPECT_EQ(telemetry.trace.events(),
            (std::vector<obs::trace_event>{
                {obs::trace_event_kind::run_start, 0.0, 0},
                {obs::trace_event_kind::convergence, 88.75, 5680},
                {obs::trace_event_kind::run_end, 88.75, 5680}}));
  EXPECT_TRUE(telemetry.phase_names.empty());
}

TEST(Runner, FiredTokenAbortsALooseTrial) {
  cancel_token token;
  token.request_cancel();
  EXPECT_THROW(run(loose_spec(engine_kind::batched), &token), cancelled_error);

  // Inside a trial: the run core polls the token before its first burst.
  const loose_stabilizing_le protocol(100, 28);
  convergence_options opt;
  opt.cancel = &token;
  EXPECT_THROW(measure_convergence_with(engine_kind::batched, protocol,
                                        protocol.dead_configuration(), 21, opt),
               cancelled_error);
}

TEST(Runner, BaselineDirectSamplesArePinned) {
  // Captured before the jump simulator gained its cap and token polls.
  const run_output out =
      run(make_spec("baseline", "uniform_random", 200, 3, 3,
                    engine_kind::direct));
  EXPECT_EQ(out.samples, (std::vector<double>{18250.985, 18695.45, 21774.34}));
  // Every transition is an executed interaction; the skipped nulls make up
  // the rest of the simulated time, 200 interactions per time unit.
  const auto counter = [&](const char* key) {
    return out.counters.find(key)->as_uint64();
  };
  EXPECT_EQ(counter("interactions_executed") + counter("certain_nulls_skipped"),
            3650197u + 3739090u + 4354868u);
  EXPECT_EQ(counter("transitions_changed"), counter("interactions_executed"));
}

TEST(Runner, BaselineDirectFailsPastMaxTimeLikeBatched) {
  // The jump simulator stops at max_time * n interactions, with the
  // batched path's failure.
  for (const engine_kind engine : {engine_kind::direct, engine_kind::batched}) {
    util::sim_request_spec spec =
        make_spec("baseline", "uniform_random", 200, 3, 3, engine);
    spec.max_time = 1;
    try {
      run(spec);
      ADD_FAILURE() << to_string(engine) << " converged within max_time 1";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "baseline did not converge within max_time")
          << to_string(engine);
    }
  }
}

TEST(Runner, FiredTokenAbortsABaselineDirectTrial) {
  cancel_token token;
  token.request_cancel();
  EXPECT_THROW(run(make_spec("baseline", "uniform_random", 200, 1, 3,
                             engine_kind::direct),
                   &token),
               cancelled_error);

  // Inside a trial: the jump simulator polls before its first transition.
  accelerated_silent_n_state sim(200, std::vector<std::uint32_t>(200, 0), 3);
  EXPECT_THROW(
      sim.run_until_stable(std::numeric_limits<std::uint64_t>::max(), &token),
      cancelled_error);
  EXPECT_EQ(sim.interactions(), 0u);
}

TEST(Runner, TracedBaselineDirectTrialCountsItsInteractions) {
  util::telemetry_spec options;
  options.trace = true;
  request_telemetry telemetry(options);
  const run_output out =
      run(make_spec("baseline", "uniform_random", 64, 2, 5,
                    engine_kind::direct),
          nullptr, &telemetry);
  const double time = out.samples[0];
  const auto interactions = static_cast<std::uint64_t>(time * 64);
  EXPECT_GT(interactions, 0u);
  EXPECT_EQ(static_cast<double>(interactions) / 64, time);
  EXPECT_EQ(telemetry.trace.events(),
            (std::vector<obs::trace_event>{
                {obs::trace_event_kind::run_start, 0.0, 0},
                {obs::trace_event_kind::convergence, time, interactions},
                {obs::trace_event_kind::run_end, time, interactions}}));
}

TEST(Runner, NeverFiredTokenChangesNoSample) {
  // A token makes the run core cut trials into bursts of max(64 n, 2^22)
  // interactions.  Every spec here runs past one burst, so each engine
  // path resumes across a cut: the count engine (baseline and optimal on
  // batched) keeps the rest of a cut geometric skip, and the direct engine
  // (optimal, and sublinear with its randomized transition) and the block
  // scheduler (loose on batched) resume their pair stream.
  // The block path's batches_drawn may differ: a cut shortens a batch.
  // Baseline on direct is the jump simulator, which polls every 1024
  // transitions and never cuts a skip.  Sublinear on the block path is the
  // one path a cut moves (pp/cancellation.hpp), so it is not listed.
  // Sublinear's trials last a few hundred time units at any n, so it takes
  // n = 6144 (5.1e6 interactions, 0.9 GB of rosters) to cross a burst.
  cancel_token token;
  const util::sim_request_spec specs[] = {
      make_spec("baseline", "uniform_random", 256, 2, 11,
                engine_kind::batched),
      make_spec("baseline", "uniform_random", 256, 2, 11,
                engine_kind::direct),
      make_spec("optimal", "uniform_random", 900, 1, 4, engine_kind::direct),
      make_spec("optimal", "uniform_random", 1200, 1, 4,
                engine_kind::batched),
      make_spec("sublinear", "uniform_random", 6144, 1, 4,
                engine_kind::direct),
      make_spec("loose", "dead_configuration", 3000, 1, 3,
                engine_kind::batched),
  };
  const auto counter = [](const run_output& out, const char* key) {
    return out.counters.find(key)->as_uint64();
  };
  for (const util::sim_request_spec& spec : specs) {
    const run_output plain = run(spec);
    const run_output cancellable = run(spec, &token);
    EXPECT_EQ(plain.samples, cancellable.samples) << spec.canonical();
    for (const char* key : {"interactions_executed", "certain_nulls_skipped",
                            "transitions_changed", "geometric_draws"}) {
      EXPECT_EQ(counter(plain, key), counter(cancellable, key))
          << spec.canonical() << " " << key;
    }
    EXPECT_GT(counter(plain, "interactions_executed") +
                  counter(plain, "certain_nulls_skipped"),
              spec.trials * (std::uint64_t{1} << 22))
        << spec.canonical() << " never crossed a burst boundary";
    EXPECT_GT(counter(plain, "interactions_executed"), spec.trials * 1024)
        << spec.canonical() << " never crossed a poll of the jump simulator";
  }
}

// Every runnable protocol (protocols/runnable.hpp) and every scenario it
// names: the trial recipe builds n agents at n = 2, 3 and 8, and
// spec_builder accepts exactly the listed (protocol, scenario) pairs.
TEST(TrialRecipe, EveryListedScenarioBuildsNAgents) {
  std::vector<std::string_view> every_scenario;
  for (const std::string_view protocol : util::protocol_names()) {
    const std::span<const std::string_view> names =
        util::scenario_names(protocol);
    every_scenario.insert(every_scenario.end(), names.begin(), names.end());
  }
  for (const std::string_view protocol : util::protocol_names()) {
    const std::span<const std::string_view> listed =
        util::scenario_names(protocol);
    for (const std::string_view scenario : every_scenario) {
      util::spec_builder builder;
      builder.set_protocol(protocol);
      builder.set_scenario(scenario);
      EXPECT_EQ(builder.finalize().empty(),
                std::find(listed.begin(), listed.end(), scenario) !=
                    listed.end())
          << protocol << " " << scenario;
    }
    for (const std::string_view scenario : listed) {
      for (const std::uint32_t n : {2u, 3u, 8u}) {
        util::sim_request_spec spec;
        spec.protocol = protocol;
        spec.scenario = scenario;
        spec.n = n;
        with_trial_recipe(spec, derive_seed(5, n), [&](auto recipe) {
          EXPECT_EQ(recipe.protocol.population_size(), n)
              << protocol << " " << scenario;
          EXPECT_EQ(recipe.initial.size(), n) << protocol << " " << scenario;
          return 0;
        });
      }
    }
  }
}

}  // namespace
}  // namespace ssr::serve
