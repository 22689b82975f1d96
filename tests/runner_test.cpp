// The serve runner (serve/runner.hpp) runs every protocol's trials through
// the one run core, pp/convergence.hpp.  Loose LE's samples stay pinned to
// the values its former private loop produced; a traced loose trial is run
// framing plus the convergence marker; a fired cancel token aborts a loose
// trial; and a cancel token that never fires changes no sample on any
// engine path but the sharded one.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/engine_counters.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pp/cancellation.hpp"
#include "pp/convergence.hpp"
#include "protocols/loose_stabilizing.hpp"
#include "serve/request_context.hpp"
#include "serve/runner.hpp"
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

TEST(Runner, NeverFiredTokenChangesNoSample) {
  // A token makes the run core cut trials into bursts of max(64 n, 2^22)
  // interactions.  Every spec here runs past one burst, so each engine
  // path resumes across a cut: the count engine (baseline on batched)
  // keeps the rest of a cut geometric skip, and the direct engine and the
  // block scheduler (loose on batched) resume their pair stream.
  // The block path's batches_drawn may differ: a cut shortens a batch.
  cancel_token token;
  const util::sim_request_spec specs[] = {
      make_spec("baseline", "uniform_random", 256, 2, 11,
                engine_kind::batched),
      make_spec("optimal", "uniform_random", 900, 1, 4, engine_kind::direct),
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
  }
}

}  // namespace
}  // namespace ssr::serve
