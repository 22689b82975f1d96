// util/request_spec.hpp: the shared request parser every front end
// (ssr_cli, the benches, ssr_serve) goes through.  The golden-message
// tests here pin the exact diagnostics so a typo'd protocol prints the
// same error at the CLI, at a bench, and on the wire; the fingerprint
// tests pin the canonical() contract the serve result cache keys on.
#include "util/request_spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "obs/scenario.hpp"
#include "protocols/adversary.hpp"

namespace ssr::util {
namespace {

sim_request_spec must_finalize(spec_builder& builder) {
  const std::vector<spec_error> errors = builder.finalize();
  EXPECT_TRUE(errors.empty()) << render_errors(errors);
  return builder.spec();
}

TEST(RequestSpec, DefaultsAreValid) {
  spec_builder builder;
  const sim_request_spec spec = must_finalize(builder);
  EXPECT_EQ(spec.protocol, "optimal");
  EXPECT_EQ(spec.scenario, "uniform_random");
  EXPECT_EQ(spec.n, 32u);
  EXPECT_EQ(spec.engine.kind, engine_kind::direct);
}

TEST(RequestSpec, UnknownProtocolSuggestsNearest) {
  spec_builder builder;
  builder.set_protocol("basline");
  const auto errors = builder.finalize();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].field, "protocol");
  EXPECT_EQ(errors[0].message,
            "unknown protocol 'basline' (did you mean baseline?)");
}

TEST(RequestSpec, ScenarioMustBelongToProtocol) {
  // single_collision exists, but only for sublinear -- selecting it under
  // optimal must fail rather than silently running a different scenario.
  spec_builder builder;
  builder.set_protocol("optimal");
  builder.set_scenario("single_collision");
  const auto errors = builder.finalize();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].field, "scenario");
  EXPECT_NE(errors[0].message.find("unknown optimal scenario"),
            std::string::npos)
      << errors[0].message;
}

TEST(RequestSpec, LooseDefaultsItsOnlyScenario) {
  spec_builder builder;
  builder.set_protocol("loose");
  const sim_request_spec spec = must_finalize(builder);
  EXPECT_EQ(spec.scenario, "dead_configuration");
}

TEST(RequestSpec, UnknownEngineSuggestsNearest) {
  spec_builder builder;
  builder.set_engine("bached");
  const auto errors = builder.finalize();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].field, "engine");
  EXPECT_EQ(errors[0].message,
            "unknown engine 'bached' (did you mean batched?)");
}

TEST(RequestSpec, NumericBoundsProduceStableFieldOrder) {
  spec_builder builder;
  builder.set_protocol("sublinear");
  builder.set_scenario("uniform_random");
  builder.set_n(1);
  builder.set_trials(0);
  builder.set_max_time(0.0);
  builder.set_h(0);
  const auto errors = builder.finalize();
  ASSERT_EQ(errors.size(), 4u);
  EXPECT_EQ(errors[0], (spec_error{"n", "population size must be at least 2"}));
  EXPECT_EQ(errors[1], (spec_error{"trials", "trial count must be positive"}));
  EXPECT_EQ(errors[2],
            (spec_error{"max_time", "parallel-time budget must be positive"}));
  EXPECT_EQ(errors[3],
            (spec_error{"h", "sublinear history depth must be at least 1"}));
}

TEST(RequestSpec, InteractionCapMustFitIn64Bits) {
  // A trial runs at most max_time * n interactions, a 64-bit count: loose
  // LE at n=30000 with max_time 1e15 asks for 3e19 > 2^64.
  spec_builder builder;
  builder.set_protocol("loose");
  builder.set_n(30000);
  builder.set_max_time(1e15);
  const auto errors = builder.finalize();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0],
            (spec_error{"max_time",
                        "max_time * n must stay below 2^64 interactions "
                        "(n=30000)"}));
  builder.set_max_time(6e14);  // 1.8e19 interactions, below 2^64
  EXPECT_TRUE(builder.finalize().empty());
}

TEST(RequestSpec, BadIntegerTextIsAFieldError) {
  spec_builder builder;
  builder.set_u64_text("n", "12x");
  const auto errors = builder.finalize();
  ASSERT_GE(errors.size(), 1u);
  EXPECT_EQ(errors[0].field, "n");
  EXPECT_EQ(errors[0].message, "expected an unsigned integer, got '12x'");
}

TEST(RequestSpec, BadMaxTimeTextIsAFieldError) {
  spec_builder builder;
  builder.set_max_time_text("fast");
  const auto errors = builder.finalize();
  ASSERT_GE(errors.size(), 1u);
  EXPECT_EQ(errors[0].field, "max_time");
  EXPECT_EQ(errors[0].message, "expected a number, got 'fast'");
}

TEST(RequestSpec, FinalizeIsIdempotent) {
  spec_builder builder;
  builder.set_protocol("basline");
  const auto first = builder.finalize();
  const auto second = builder.finalize();
  EXPECT_EQ(first, second);
}

TEST(RequestSpec, RenderErrorsJoinsWithSemicolons) {
  const std::vector<spec_error> errors = {{"n", "too small"},
                                          {"seed", "bad"}};
  EXPECT_EQ(render_errors(errors), "n: too small; seed: bad");
  EXPECT_EQ(render_errors({}), "");
}

TEST(RequestSpec, ParseU64Golden) {
  EXPECT_EQ(parse_u64("0"), std::uint64_t{0});
  EXPECT_EQ(parse_u64("42"), std::uint64_t{42});
  EXPECT_EQ(parse_u64(""), std::nullopt);
  EXPECT_EQ(parse_u64("-1"), std::nullopt);
  EXPECT_EQ(parse_u64("+3"), std::nullopt);
  EXPECT_EQ(parse_u64("1e3"), std::nullopt);
  EXPECT_EQ(parse_u64("12 "), std::nullopt);
}

// The 32-bit fields never wrap: n=2^32+2 is a field error, not n=2.
TEST(RequestSpec, ValuesAbove32BitsAreFieldErrors) {
  for (const char* field : {"n", "h", "t_max"}) {
    spec_builder builder;
    builder.set_u64_text(field, "4294967298");
    const auto errors = builder.finalize();
    ASSERT_EQ(errors.size(), 1u) << field << ": " << render_errors(errors);
    EXPECT_EQ(errors[0], (spec_error{field, "must be at most 4294967295, "
                                            "got 4294967298"}));
  }
  spec_builder widest;
  widest.set_u64_text("n", "4294967295");
  EXPECT_EQ(must_finalize(widest).n, 4294967295u);
}

// Text above 2^64-1 is a field error, not the value mod 2^64.
TEST(RequestSpec, ValuesAbove64BitsAreFieldErrors) {
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_u64("18446744073709551616"), std::nullopt);
  spec_builder builder;
  builder.set_u64_text("seed", "18446744073709551616");
  const auto errors = builder.finalize();
  ASSERT_EQ(errors.size(), 1u) << render_errors(errors);
  EXPECT_EQ(errors[0],
            (spec_error{"seed", "exceeds 2^64-1, got '18446744073709551616'"}));
  spec_builder widest;
  widest.set_u64_text("seed", "18446744073709551615");
  EXPECT_EQ(must_finalize(widest).seed, UINT64_MAX);
}

// A scenario document (and the wire, which parses one) reports the same
// field error as the text path.
TEST(RequestSpec, ScenarioDocumentRefusesValuesAbove32Bits) {
  std::vector<spec_error> errors;
  EXPECT_FALSE(obs::parse_scenario_text(
                   R"({"schema":"ssr.scenario","schema_version":1,
                       "name":"wide","protocol":"optimal","n":4294967298})",
                   &errors)
                   .has_value());
  ASSERT_EQ(errors.size(), 1u) << render_errors(errors);
  EXPECT_EQ(errors[0],
            (spec_error{"n", "must be at most 4294967295, got 4294967298"}));
}

TEST(RequestSpec, UnknownNameMessageDropsFarSuggestions) {
  EXPECT_EQ(unknown_name_message("protocol", "zzzzzzzzzz", protocol_names()),
            "unknown protocol 'zzzzzzzzzz'");
}

TEST(RequestSpec, NameTablesCoverEveryProtocol) {
  ASSERT_EQ(protocol_names().size(), 4u);
  for (const std::string_view protocol : protocol_names()) {
    EXPECT_FALSE(scenario_names(protocol).empty()) << protocol;
  }
  EXPECT_TRUE(scenario_names("bogus").empty());
}

template <class Scenario>
void expect_names_match_generators(std::string_view protocol) {
  // The i-th validated name is the name of the i-th enumerator, the
  // generator the trial recipe runs for it; valid_ranking is the last
  // enumerator of both scenario types.
  const std::span<const std::string_view> names = scenario_names(protocol);
  ASSERT_EQ(names.size(),
            static_cast<std::size_t>(Scenario::valid_ranking) + 1)
      << protocol;
  for (std::size_t s = 0; s < names.size(); ++s)
    EXPECT_EQ(to_string(static_cast<Scenario>(s)), names[s]) << protocol;
}

TEST(RequestSpec, ScenarioNamesMatchTheGenerators) {
  // The validation list and the adversary's names cannot drift apart.
  expect_names_match_generators<optimal_silent_scenario>("optimal");
  expect_names_match_generators<sublinear_scenario>("sublinear");
}

// -- canonical() fingerprints: what the serve result cache keys on. ------

TEST(Fingerprint, MaterializesEveryDefault) {
  spec_builder builder;
  const sim_request_spec spec = must_finalize(builder);
  EXPECT_EQ(spec.canonical(),
            "protocol=optimal scenario=uniform_random n=32 trials=1 seed=1 "
            "max_time=10000000 engine=direct");
}

TEST(Fingerprint, SetterOrderIsIrrelevant) {
  spec_builder forward;
  forward.set_protocol("optimal");
  forward.set_n(64);
  forward.set_seed(7);
  spec_builder reverse;
  reverse.set_seed(7);
  reverse.set_n(64);
  reverse.set_protocol("optimal");
  EXPECT_EQ(must_finalize(forward).canonical(),
            must_finalize(reverse).canonical());
}

TEST(Fingerprint, OmitsHistoryDepthUnlessSublinear) {
  // h is dead weight for optimal: two requests differing only in h must
  // share a cache entry.
  spec_builder with_h;
  with_h.set_protocol("optimal");
  with_h.set_h(7);
  spec_builder without_h;
  without_h.set_protocol("optimal");
  EXPECT_EQ(must_finalize(with_h).canonical(),
            must_finalize(without_h).canonical());

  spec_builder sublinear;
  sublinear.set_protocol("sublinear");
  sublinear.set_h(2);
  EXPECT_NE(must_finalize(sublinear).canonical().find(" h=2"),
            std::string::npos);
}

TEST(Fingerprint, OmitsTimeoutUnlessLoose) {
  spec_builder optimal;
  optimal.set_protocol("optimal");
  optimal.set_t_max(99);
  EXPECT_EQ(must_finalize(optimal).canonical().find("t_max"),
            std::string::npos);

  spec_builder loose;
  loose.set_protocol("loose");
  loose.set_t_max(99);
  EXPECT_NE(must_finalize(loose).canonical().find(" t_max=99"),
            std::string::npos);
}

TEST(Fingerprint, DistinguishesEveryMaterialField) {
  spec_builder base;
  const std::string key = must_finalize(base).canonical();
  const auto differs = [&](auto&& mutate) {
    spec_builder builder;
    mutate(builder);
    EXPECT_NE(must_finalize(builder).canonical(), key);
  };
  differs([](spec_builder& b) { b.set_n(33); });
  differs([](spec_builder& b) { b.set_seed(2); });
  differs([](spec_builder& b) { b.set_trials(2); });
  differs([](spec_builder& b) { b.set_scenario("no_leader"); });
  differs([](spec_builder& b) { b.set_engine("batched"); });
  differs([](spec_builder& b) { b.set_max_time(5e6); });
}

TEST(TelemetrySpec, DefaultsAreDetached) {
  telemetry_builder builder;
  EXPECT_TRUE(builder.finalize().empty());
  EXPECT_FALSE(builder.spec().any());
  EXPECT_FALSE(builder.spec().trace);
  EXPECT_FALSE(builder.spec().profile);
  EXPECT_EQ(builder.spec().trace_sample_every, 1u);
}

TEST(TelemetrySpec, AnyReflectsEitherChannel) {
  telemetry_builder traced;
  traced.set_trace_enabled(true);
  EXPECT_TRUE(traced.spec().any());

  telemetry_builder profiled;
  profiled.set_profile(true);
  EXPECT_TRUE(profiled.spec().any());
}

TEST(TelemetrySpec, TraceOptionsApplyByName) {
  telemetry_builder builder;
  builder.set_trace_enabled(true);
  builder.set_trace_option("sample_every", 8);
  builder.set_trace_option("max_events", 512);
  EXPECT_TRUE(builder.finalize().empty());
  EXPECT_EQ(builder.spec().trace_sample_every, 8u);
  EXPECT_EQ(builder.spec().trace_max_events, 512u);
}

TEST(TelemetrySpec, UnknownTraceOptionSuggestsNearest) {
  telemetry_builder builder;
  builder.set_trace_option("sample_evry", 2);
  const std::vector<spec_error> errors = builder.finalize();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].field, "trace.sample_evry");
  EXPECT_NE(errors[0].message.find("did you mean sample_every"),
            std::string::npos)
      << errors[0].message;
}

TEST(TelemetrySpec, ZeroesAreRejectedNotClamped) {
  telemetry_builder builder;
  builder.set_trace_enabled(true);
  builder.set_trace_option("sample_every", 0);
  builder.set_trace_option("max_events", 0);
  const std::vector<spec_error> errors = builder.finalize();
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0].field, "trace.sample_every");
  EXPECT_EQ(errors[1].field, "trace.max_events");
}

TEST(TelemetrySpec, FinalizeIsIdempotent) {
  telemetry_builder builder;
  builder.set_trace_option("bogus", 1);
  EXPECT_EQ(builder.finalize().size(), 1u);
  EXPECT_EQ(builder.finalize().size(), 1u);
}

}  // namespace
}  // namespace ssr::util
