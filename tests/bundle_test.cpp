// Run-bundle observability: the ssr.scenario parser, the bundle writer's
// deterministic contract (same (scenario, seed) => byte-identical run.json
// and manifest digests), golden summary/manifest fixtures, manifest
// verification, the baseline compare gates, and the serve daemon's run
// requests, which are scenario documents.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/bundle.hpp"
#include "obs/journal.hpp"
#include "obs/scenario.hpp"
#include "serve/runner.hpp"
#include "serve/service.hpp"
#include "util/request_spec.hpp"

namespace ssr {
namespace {

namespace fs = std::filesystem;

std::string data_path(const std::string& name) {
  return std::string(SSR_TEST_DATA_DIR) + "/" + name;
}

std::string example_path(const std::string& name) {
  return std::string(SSR_SCENARIO_EXAMPLES_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << "cannot write " << path;
  out << content;
}

/// The small fixed scenario behind the determinism and golden tests.
obs::scenario_doc test_scenario() {
  std::vector<util::spec_error> errors;
  const std::optional<obs::scenario_doc> doc = obs::parse_scenario_text(
      R"({"schema":"ssr.scenario","schema_version":1,
          "name":"golden_optimal","description":"golden fixture scenario",
          "protocol":"optimal","scenario":"no_leader","n":16,
          "trials":3,"seed":5,"max_time":1000000,"engine":"direct"})",
      &errors);
  EXPECT_TRUE(doc.has_value()) << util::render_errors(errors);
  return *doc;
}

/// Executes a scenario the way `ssr_cli run` does (no journal).
obs::bundle_result run_and_bundle(const obs::scenario_doc& scenario,
                                  const std::string& dir,
                                  obs::bundle_provenance provenance) {
  obs::metrics_registry registry;
  obs::engine_counters counters;
  const std::shared_ptr<const obs::json_value> result = serve::run_simulation(
      scenario.spec, nullptr, &registry, nullptr, &counters);
  return obs::write_run_bundle(dir, scenario, *result, counters, {},
                               provenance);
}

TEST(Scenario, ParsesAndFingerprintsLikeTheSharedBuilder) {
  const obs::scenario_doc doc = test_scenario();
  EXPECT_EQ(doc.name, "golden_optimal");
  EXPECT_EQ(doc.spec.protocol, "optimal");
  EXPECT_EQ(doc.spec.scenario, "no_leader");
  EXPECT_EQ(doc.spec.n, 16u);
  EXPECT_EQ(doc.spec.trials, 3u);
  EXPECT_EQ(doc.spec.canonical(),
            "protocol=optimal scenario=no_leader n=16 trials=3 seed=5 "
            "max_time=1000000 engine=direct");
}

TEST(Scenario, CanonicalizationIsFieldOrderInsensitive) {
  std::vector<util::spec_error> errors;
  const auto a = obs::parse_scenario_text(
      R"({"name":"x","protocol":"optimal","scenario":"no_leader","n":16,
          "trials":3,"seed":5})",
      &errors);
  ASSERT_TRUE(a.has_value()) << util::render_errors(errors);
  const auto b = obs::parse_scenario_text(
      R"({"seed":5,"n":16,"scenario":"no_leader","trials":3,
          "protocol":"optimal","name":"x"})",
      &errors);
  ASSERT_TRUE(b.has_value()) << util::render_errors(errors);
  EXPECT_EQ(obs::scenario_to_json(*a).dump(2),
            obs::scenario_to_json(*b).dump(2));
}

TEST(Scenario, FieldErrorsMatchGolden) {
  // A typo'd protocol, a typo'd field, a missing name, and a malformed
  // trace block, all reported field-by-field with nearest-name
  // suggestions -- the same diagnostics the CLI flags and the serve wire
  // produce for the same mistakes.
  std::vector<util::spec_error> errors;
  const auto doc = obs::parse_scenario_text(
      R"({"schema":"ssr.scenario","schema_version":1,
          "protocol":"optiml","scenaro":"no_leader","n":16,
          "trace":{"sample_evry":2}})",
      &errors);
  EXPECT_FALSE(doc.has_value());
  std::ostringstream rendered;
  for (const util::spec_error& e : errors)
    rendered << e.field << ": " << e.message << "\n";
  const std::string golden_path = data_path("bundle/scenario_errors_golden.txt");
  EXPECT_EQ(rendered.str(), slurp(golden_path))
      << "regenerate with the printed text if the diagnostics changed";
}

TEST(Scenario, InteractionCapOverflowFailsLikeTheWire) {
  // max_time * n >= 2^64 is one max_time field error in a scenario file
  // and on the wire, with util::spec_builder's message.
  const std::string message =
      "max_time * n must stay below 2^64 interactions (n=30000)";
  std::vector<util::spec_error> errors;
  EXPECT_FALSE(obs::parse_scenario_text(
                   R"({"schema":"ssr.scenario","schema_version":1,
                       "name":"overflow","protocol":"loose","n":30000,
                       "max_time":1e15})",
                   &errors)
                   .has_value());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0], (util::spec_error{"max_time", message}));

  serve::service service({.workers = 1});
  const obs::json_value response = service.handle_line(
      R"({"type":"run","protocol":"loose","n":30000,"max_time":1e15})");
  const obs::json_value* field_errors = response.find("field_errors");
  ASSERT_NE(field_errors, nullptr) << response.dump(2);
  ASSERT_EQ(field_errors->size(), 1u);
  EXPECT_EQ(field_errors->at(0).find("field")->as_string(), "max_time");
  EXPECT_EQ(field_errors->at(0).find("message")->as_string(), message);
}

TEST(Scenario, EveryShippedExampleRuns) {
  // Each examples/scenarios/*.json parses and runs to completion the way
  // `ssr_cli run` executes it, telemetry included.
  std::size_t examples = 0;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(SSR_SCENARIO_EXAMPLES_DIR)) {
    if (entry.path().extension() != ".json") continue;
    ++examples;
    const std::string path = entry.path().string();
    std::vector<util::spec_error> errors;
    const std::optional<obs::scenario_doc> doc =
        obs::parse_scenario_text(slurp(path), &errors);
    ASSERT_TRUE(doc.has_value()) << path << ": " << util::render_errors(errors);
    std::optional<serve::request_telemetry> telemetry;
    if (doc->telemetry.any()) telemetry.emplace(doc->telemetry);
    obs::engine_counters counters;
    const std::shared_ptr<const obs::json_value> result =
        serve::run_simulation(doc->spec, nullptr, nullptr,
                              telemetry.has_value() ? &*telemetry : nullptr,
                              &counters);
    EXPECT_EQ(result->find("samples")->size(), doc->spec.trials) << path;
  }
  EXPECT_GE(examples, 3u);
}

TEST(Scenario, RejectsWrongSchemaAndVersion) {
  std::vector<util::spec_error> errors;
  EXPECT_FALSE(obs::parse_scenario_text(
                   R"({"schema":"ssr.nope","name":"x","protocol":"optimal",
                       "n":16})",
                   &errors)
                   .has_value());
  bool saw_schema = false;
  for (const util::spec_error& e : errors) saw_schema |= e.field == "schema";
  EXPECT_TRUE(saw_schema);
  EXPECT_FALSE(obs::parse_scenario_text(
                   R"({"schema":"ssr.scenario","schema_version":2,
                       "name":"x","protocol":"optimal","n":16})",
                   &errors)
                   .has_value());
  bool saw_version = false;
  for (const util::spec_error& e : errors)
    saw_version |= e.field == "schema_version";
  EXPECT_TRUE(saw_version);
}

TEST(Bundle, SameScenarioAndSeedIsByteIdentical) {
  const obs::scenario_doc scenario = test_scenario();
  const std::string dir_a = testing::TempDir() + "bundle_det_a";
  const std::string dir_b = testing::TempDir() + "bundle_det_b";
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
  // Different provenance on purpose: run.json must not absorb it.
  const obs::bundle_result a =
      run_and_bundle(scenario, dir_a, {"revA", 1111});
  const obs::bundle_result b =
      run_and_bundle(scenario, dir_b, {"revB", 2222});
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(slurp(dir_a + "/run.json"), slurp(dir_b + "/run.json"));
  EXPECT_EQ(slurp(dir_a + "/scenario.json"), slurp(dir_b + "/scenario.json"));
  EXPECT_EQ(slurp(dir_a + "/summary.md"), slurp(dir_b + "/summary.md"));

  // The manifests differ only in provenance: every per-file sha256 of the
  // deterministic files must match.
  std::string error;
  const auto manifest_a = obs::load_json_file(a.manifest_path, &error);
  const auto manifest_b = obs::load_json_file(b.manifest_path, &error);
  ASSERT_TRUE(manifest_a.has_value() && manifest_b.has_value()) << error;
  const obs::json_value* files_a = manifest_a->find("files");
  const obs::json_value* files_b = manifest_b->find("files");
  ASSERT_NE(files_a, nullptr);
  ASSERT_NE(files_b, nullptr);
  ASSERT_EQ(files_a->size(), files_b->size());
  for (std::size_t i = 0; i < files_a->size(); ++i) {
    const obs::json_value& fa = files_a->items()[i];
    const obs::json_value& fb = files_b->items()[i];
    EXPECT_EQ(fa.find("path")->as_string(), fb.find("path")->as_string());
    EXPECT_EQ(fa.find("sha256")->as_string(), fb.find("sha256")->as_string())
        << "digest drift in " << fa.find("path")->as_string();
  }
}

TEST(Bundle, SummaryAndManifestMatchGolden) {
  const obs::scenario_doc scenario = test_scenario();
  const std::string dir = testing::TempDir() + "bundle_golden";
  fs::remove_all(dir);
  // Pinned provenance so the manifest is reproducible byte for byte.
  const obs::bundle_result bundle =
      run_and_bundle(scenario, dir, {"testrev", 1754000000000});
  ASSERT_TRUE(bundle.ok) << bundle.error;
  EXPECT_EQ(slurp(dir + "/summary.md"),
            slurp(data_path("bundle/summary_golden.md")))
      << "golden lives at tests/data/bundle/summary_golden.md; source: "
      << dir + "/summary.md";
  EXPECT_EQ(slurp(dir + "/bundle_manifest.json"),
            slurp(data_path("bundle/bundle_manifest_golden.json")))
      << "golden lives at tests/data/bundle/bundle_manifest_golden.json; "
         "source: "
      << dir + "/bundle_manifest.json";
}

TEST(Bundle, VerifyPassesCleanAndFlagsTampering) {
  const obs::scenario_doc scenario = test_scenario();
  const std::string dir = testing::TempDir() + "bundle_verify";
  fs::remove_all(dir);
  ASSERT_TRUE(run_and_bundle(scenario, dir, {"rev", 1}).ok);
  const obs::manifest_check clean = obs::verify_bundle(dir);
  EXPECT_TRUE(clean.ok()) << clean.problems.front();
  EXPECT_EQ(clean.files_checked, 3u);  // scenario.json, run.json, summary.md

  spit(dir + "/run.json", "{\"tampered\":true}\n");
  const obs::manifest_check tampered = obs::verify_bundle(dir);
  ASSERT_FALSE(tampered.ok());
  bool names_run_json = false;
  for (const std::string& problem : tampered.problems)
    names_run_json |= problem.find("run.json") != std::string::npos;
  EXPECT_TRUE(names_run_json);

  fs::remove(dir + "/summary.md");
  const obs::manifest_check missing = obs::verify_bundle(dir);
  ASSERT_FALSE(missing.ok());
  bool names_missing = false;
  for (const std::string& problem : missing.problems)
    names_missing |= problem.find("summary.md") != std::string::npos &&
                     problem.find("missing") != std::string::npos;
  EXPECT_TRUE(names_missing);
}

TEST(Bundle, CleanRerunComparesWithoutRegression) {
  const obs::scenario_doc scenario = test_scenario();
  const std::string dir = testing::TempDir() + "bundle_cmp";
  fs::remove_all(dir);
  const obs::bundle_result bundle = run_and_bundle(scenario, dir, {"rev", 1});
  ASSERT_TRUE(bundle.ok);
  const obs::json_value baseline = obs::baseline_document(
      bundle.run_doc, {"rev", 1});
  const obs::bundle_comparison comparison =
      obs::compare_against_baseline(bundle.run_doc, baseline);
  ASSERT_TRUE(comparison.ok) << comparison.error;
  // Sample row + engine-work value row (the direct engine executed real
  // interactions), identical on both sides.
  EXPECT_EQ(comparison.compared, 2);
  EXPECT_EQ(comparison.regressions, 0);
}

TEST(Bundle, CompareRefusesFingerprintMismatch) {
  const obs::scenario_doc scenario = test_scenario();
  const std::string dir = testing::TempDir() + "bundle_fp";
  fs::remove_all(dir);
  const obs::bundle_result bundle = run_and_bundle(scenario, dir, {"rev", 1});
  ASSERT_TRUE(bundle.ok);
  obs::json_value baseline = obs::baseline_document(bundle.run_doc);
  baseline["fingerprint"] = "protocol=optimal scenario=no_leader n=999";
  const obs::bundle_comparison comparison =
      obs::compare_against_baseline(bundle.run_doc, baseline);
  EXPECT_FALSE(comparison.ok);
  EXPECT_NE(comparison.error.find("fingerprint mismatch"), std::string::npos);
}

TEST(Bundle, RegressedFixtureFiresTheGate) {
  // The doctored baseline (tests/data/bundle/regressed_baseline.json)
  // claims the CI example scenario once ran ~10x faster; comparing a real
  // run against it must flag both gates.  First pin the fixture to the
  // example scenario so neither can drift silently.
  std::vector<util::spec_error> errors;
  const auto scenario = obs::parse_scenario_text(
      slurp(example_path("optimal_no_leader.json")), &errors);
  ASSERT_TRUE(scenario.has_value()) << util::render_errors(errors);
  std::string error;
  const auto baseline =
      obs::load_json_file(data_path("bundle/regressed_baseline.json"), &error);
  ASSERT_TRUE(baseline.has_value()) << error;
  EXPECT_EQ(baseline->find("fingerprint")->as_string(),
            scenario->spec.canonical())
      << "regressed_baseline.json no longer matches the example scenario";

  obs::metrics_registry registry;
  obs::engine_counters counters;
  const auto result = serve::run_simulation(scenario->spec, nullptr,
                                            &registry, nullptr, &counters);
  const obs::json_value run_doc =
      obs::run_document(*scenario, *result, counters);
  const obs::bundle_comparison comparison =
      obs::compare_against_baseline(run_doc, *baseline);
  ASSERT_TRUE(comparison.ok) << comparison.error;
  EXPECT_GE(comparison.regressions, 1);
}

TEST(ObsJournal, DefaultSchemaIsGeneralizedEvents) {
  std::ostringstream os;
  obs::journal journal{obs::journal_options{}};
  journal.open_stream(&os);
  obs::json_value fields = obs::json_value::object();
  fields["request_id"] = "job-1";
  journal.emit("admit", fields);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"event\":\"journal_header\""), std::string::npos);
  EXPECT_NE(text.find("\"schema\":\"ssr.events\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"admit\""), std::string::npos);
}

TEST(ServeScenario, PayloadRunsAndPersistsABundle) {
  const std::string dir = testing::TempDir() + "serve_scenario_bundle";
  fs::remove_all(dir);
  serve::service_options options;
  options.workers = 1;
  options.telemetry_dir = dir;
  serve::service service(options);
  const std::string request =
      R"({"type":"run","id":1,
          "schema":"ssr.scenario","schema_version":1,
          "name":"wire_scenario","protocol":"optimal",
          "scenario":"no_leader","n":16,"trials":2,"seed":9,
          "engine":"direct","trace":true})";
  const obs::json_value response = service.handle_line(request);
  ASSERT_NE(response.find("ok"), nullptr);
  ASSERT_TRUE(response.find("ok")->as_bool())
      << response.dump(2);
  const obs::json_value* bundle = response.find("bundle");
  ASSERT_NE(bundle, nullptr);
  EXPECT_TRUE(bundle->find("ok")->as_bool());
  const std::string bundle_dir = bundle->find("dir")->as_string();
  const obs::manifest_check check = obs::verify_bundle(bundle_dir);
  EXPECT_TRUE(check.ok()) << check.problems.front();
  EXPECT_TRUE(fs::exists(bundle_dir + "/trace.jsonl"));
  EXPECT_NE(slurp(bundle_dir + "/scenario.json").find("\"wire_scenario\""),
            std::string::npos);

  // Same request again: a traced request skips the cache lookup (its
  // trace must observe an execution), so the replay is uncached too.
  const obs::json_value replay = service.handle_line(request);
  ASSERT_TRUE(replay.find("ok")->as_bool());
  EXPECT_FALSE(replay.find("cached")->as_bool());
}

TEST(ServeScenario, InvalidPayloadGetsPrefixedFieldErrors) {
  // The wire reports the scenario parser's own field names, with no
  // prefix; a request needs no name, and a misspelled transport field
  // still gets its suggestion.
  serve::service service({.workers = 1});
  const obs::json_value response = service.handle_line(
      R"({"type":"run","protocol":"optiml","n":16,"progess":true})");
  ASSERT_NE(response.find("error"), nullptr);
  EXPECT_EQ(response.find("error")->as_string(), "invalid_request");
  const obs::json_value* field_errors = response.find("field_errors");
  ASSERT_NE(field_errors, nullptr);
  bool saw_protocol = false, saw_name = false, saw_sibling = false;
  for (const obs::json_value& item : field_errors->items()) {
    const std::string& field = item.find("field")->as_string();
    if (field == "protocol") {
      saw_protocol = true;
      EXPECT_NE(item.find("message")->as_string().find("did you mean"),
                std::string::npos);
    }
    if (field == "name") saw_name = true;
    if (field == "progess") {
      saw_sibling = true;
      EXPECT_NE(item.find("message")->as_string().find("progress"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(saw_protocol);
  EXPECT_FALSE(saw_name);
  EXPECT_TRUE(saw_sibling);
}

TEST(ServeScenario, FieldErrorsMatchTheScenarioGolden) {
  // The document of Scenario.FieldErrorsMatchGolden sent as a request
  // gets the scenario file's errors, in its order, except the missing
  // name: a request without one is named by its request id.
  serve::service service({.workers = 1});
  const obs::json_value response = service.handle_line(
      R"({"type":"run","schema":"ssr.scenario","schema_version":1,
          "protocol":"optiml","scenaro":"no_leader","n":16,
          "trace":{"sample_evry":2}})");
  const obs::json_value* field_errors = response.find("field_errors");
  ASSERT_NE(field_errors, nullptr) << response.dump(2);
  std::ostringstream rendered;
  for (const obs::json_value& item : field_errors->items()) {
    rendered << item.find("field")->as_string() << ": "
             << item.find("message")->as_string() << "\n";
  }
  std::istringstream golden(slurp(data_path("bundle/scenario_errors_golden.txt")));
  std::string expected;
  for (std::string line; std::getline(golden, line);) {
    if (line.rfind("name: ", 0) != 0) expected += line + "\n";
  }
  EXPECT_EQ(rendered.str(), expected);
}

TEST(ServeScenario, ExamplesBundleLikeSsrCliRun) {
  // Each shipped scenario file, sent with "type":"run" to a daemon with a
  // telemetry dir, leaves a verified bundle whose run.json is the one
  // `ssr_cli run` writes for the file.
  const std::string dir = testing::TempDir() + "serve_scenario_examples";
  fs::remove_all(dir);
  serve::service_options options;
  options.workers = 1;
  options.telemetry_dir = dir + "/daemon";
  serve::service service(options);
  std::size_t examples = 0;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(SSR_SCENARIO_EXAMPLES_DIR)) {
    if (entry.path().extension() != ".json") continue;
    ++examples;
    const std::string text = slurp(entry.path().string());
    std::optional<obs::json_value> request = obs::json_value::parse(text);
    ASSERT_TRUE(request.has_value()) << entry.path();
    (*request)["type"] = "run";
    const obs::json_value response = service.handle(*request);
    ASSERT_TRUE(response.find("ok")->as_bool()) << response.dump(2);
    const obs::json_value* bundle = response.find("bundle");
    ASSERT_NE(bundle, nullptr) << response.dump(2);
    const std::string served = bundle->find("dir")->as_string();
    const obs::manifest_check check = obs::verify_bundle(served);
    EXPECT_TRUE(check.ok()) << served;

    std::vector<util::spec_error> errors;
    const std::optional<obs::scenario_doc> doc =
        obs::parse_scenario_text(text, &errors);
    ASSERT_TRUE(doc.has_value()) << util::render_errors(errors);
    std::optional<serve::request_telemetry> telemetry;
    if (doc->telemetry.any()) telemetry.emplace(doc->telemetry);
    obs::metrics_registry registry;
    obs::engine_counters counters;
    const std::shared_ptr<const obs::json_value> result =
        serve::run_simulation(doc->spec, nullptr, &registry,
                              telemetry.has_value() ? &*telemetry : nullptr,
                              &counters);
    const std::string local = dir + "/" + doc->name;
    ASSERT_TRUE(serve::write_job_bundle(local, *doc, *result, counters,
                                        telemetry.has_value() ? &*telemetry
                                                              : nullptr,
                                        registry)
                    .ok);
    EXPECT_EQ(slurp(served + "/run.json"), slurp(local + "/run.json"))
        << entry.path();
  }
  EXPECT_GE(examples, 3u);
}

TEST(ServeScenario, NamedTracedRunShipsItsTraceWithoutATelemetryDir) {
  serve::service service({.workers = 1});
  const obs::json_value response = service.handle_line(
      R"({"type":"run","name":"traced","protocol":"optimal","n":16,
          "trials":1,"seed":4,"trace":true})");
  ASSERT_TRUE(response.find("ok")->as_bool()) << response.dump(2);
  const obs::json_value* telemetry = response.find("telemetry");
  ASSERT_NE(telemetry, nullptr) << response.dump(2);
  ASSERT_NE(telemetry->find("trace"), nullptr);
  EXPECT_GT(telemetry->find("trace")->find("events")->size(), 0u);
  EXPECT_EQ(response.find("bundle"), nullptr);
}

TEST(ServeScenario, MetricsWithoutATelemetryDirIsAFieldError) {
  // metrics.prom is a bundle file; a daemon without a telemetry dir has
  // nowhere to put it, so it refuses the request instead of dropping it.
  const std::string request =
      R"({"type":"run","protocol":"optimal","n":16,"metrics":true})";
  serve::service service({.workers = 1});
  const obs::json_value response = service.handle_line(request);
  const obs::json_value* field_errors = response.find("field_errors");
  ASSERT_NE(field_errors, nullptr) << response.dump(2);
  ASSERT_EQ(field_errors->size(), 1u);
  EXPECT_EQ(field_errors->at(0).find("field")->as_string(), "metrics");
  EXPECT_NE(field_errors->at(0).find("message")->as_string().find(
                "telemetry dir"),
            std::string::npos)
      << field_errors->at(0).dump();

  // With a telemetry dir the same request leaves metrics.prom in its bundle.
  const std::string dir = testing::TempDir() + "serve_scenario_metrics";
  fs::remove_all(dir);
  serve::service_options options;
  options.workers = 1;
  options.telemetry_dir = dir;
  serve::service with_dir(options);
  const obs::json_value ran = with_dir.handle_line(request);
  const obs::json_value* bundle = ran.find("bundle");
  ASSERT_NE(bundle, nullptr) << ran.dump(2);
  EXPECT_TRUE(fs::exists(bundle->find("dir")->as_string() + "/metrics.prom"));
}

TEST(ServeScenario, NestedScenarioObjectIsAFieldError) {
  // The retired {"scenario": {...}} payload gets the scenario parser's own
  // error for a non-string "scenario".
  serve::service service({.workers = 1});
  const obs::json_value response = service.handle_line(
      R"({"type":"run","scenario":{"schema":"ssr.scenario",
          "schema_version":1,"name":"nested","protocol":"optimal",
          "n":16}})");
  const obs::json_value* field_errors = response.find("field_errors");
  ASSERT_NE(field_errors, nullptr) << response.dump(2);
  ASSERT_EQ(field_errors->size(), 1u);
  EXPECT_EQ(field_errors->at(0).find("field")->as_string(), "scenario");
  EXPECT_EQ(field_errors->at(0).find("message")->as_string(),
            "must be a string");
}

}  // namespace
}  // namespace ssr
