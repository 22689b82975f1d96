#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace ssr::obs {
namespace {

/// A fully deterministic report: every volatile field (git_rev, timestamps,
/// wall time) pinned, so its dump(2) is byte-stable and can be compared
/// against the checked-in golden file.
bench_report make_fixture_report() {
  bench_report r;
  r.experiment = "E0";
  r.title = "golden fixture";
  r.binary = "obs_report_test";
  r.engine = "batched";
  r.git_rev = "0000000000000000000000000000000000000000";
  r.generated_unix = 1754300000;
  r.argv = {"--engine=batched", "--trials=4"};
  r.wall_time_seconds = 1.5;
  r.add_samples("stabilization", "optimal_silent", 64,
                "scenario=uniform_random", 4, 1042, "parallel_time",
                {10.0, 12.0, 11.0, 13.0});
  report_row& holding = r.add_samples("holding", "loose", 32, "", 4, 7,
                                      "parallel_time", {5.0, 6.0, 5.5, 7.0});
  holding.lower_is_better = false;
  r.add_value("throughput", "interactions_per_second", "silent_n_state",
              1024, "", 2.5e8, "1/s", /*higher_is_better=*/true);
  r.metrics = json_value::object();
  r.metrics["trials.completed"] = 8;
  return r;
}

std::string golden_path() {
  return std::string(SSR_TEST_DATA_DIR) + "/report_golden.json";
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is) << "cannot open " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// The serialized schema is a contract consumed by report_trend and external
// scripts; any change must be deliberate.  Regenerate the golden file with
//   SSR_UPDATE_GOLDEN=1 ./ssr_tests --gtest_filter=ObsReport.GoldenFile
// and review the diff.
TEST(ObsReport, GoldenFile) {
  const std::string dumped = make_fixture_report().to_json().dump(2) + "\n";
  if (std::getenv("SSR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream os(golden_path());
    ASSERT_TRUE(os) << golden_path();
    os << dumped;
    GTEST_SKIP() << "golden file regenerated";
  }
  EXPECT_EQ(dumped, slurp(golden_path()));
}

TEST(ObsReport, GoldenFileIsSchemaValid) {
  const auto parsed = json_value::parse(slurp(golden_path()));
  ASSERT_TRUE(parsed.has_value());
  const auto problems = validate_report_json(*parsed);
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());
}

TEST(ObsReport, RoundTripsThroughJson) {
  const bench_report r = make_fixture_report();
  std::string error;
  const auto back = bench_report::from_json(r.to_json(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->experiment, r.experiment);
  EXPECT_EQ(back->engine, r.engine);
  EXPECT_EQ(back->argv, r.argv);
  ASSERT_EQ(back->rows.size(), r.rows.size());
  EXPECT_EQ(back->rows[0].samples, r.rows[0].samples);
  EXPECT_EQ(back->rows[0].seed, r.rows[0].seed);
  EXPECT_TRUE(back->rows[0].lower_is_better);
  EXPECT_FALSE(back->rows[1].lower_is_better);
  EXPECT_EQ(back->rows[2].kind, report_row::kind_t::value);
  EXPECT_DOUBLE_EQ(back->rows[2].value, r.rows[2].value);
  EXPECT_FALSE(back->rows[2].lower_is_better);
  EXPECT_TRUE(back->to_json() == r.to_json());
}

TEST(ObsReport, RowKeysJoinAcrossReports) {
  const bench_report r = make_fixture_report();
  EXPECT_EQ(r.rows[0].key(),
            "stabilization|optimal_silent|64|scenario=uniform_random");
  EXPECT_NE(r.rows[0].key(), r.rows[1].key());
  // Value rows disambiguate by metric as well: two rates for the same
  // (section, protocol, n) must not collide.
  EXPECT_NE(r.rows[2].key(),
            bench_report(r).add_value("throughput", "other_metric",
                                      "silent_n_state", 1024, "", 1.0, "1/s")
                .key());
}

TEST(ObsReport, ValidatorRejectsBrokenDocuments) {
  const json_value good = make_fixture_report().to_json();
  EXPECT_TRUE(validate_report_json(good).empty());

  json_value wrong_version = good;
  wrong_version["schema_version"] = 99;
  EXPECT_FALSE(validate_report_json(wrong_version).empty());

  json_value not_object = json_value::array();
  EXPECT_FALSE(validate_report_json(not_object).empty());

  json_value no_rows = good;
  no_rows["rows"] = json_value(1);
  EXPECT_FALSE(validate_report_json(no_rows).empty());

  // Trials disagreeing with the sample count is a corrupt report.
  json_value bad_trials = good;
  json_value rows = json_value::array();
  json_value row = good.find("rows")->at(0);
  row["trials"] = 999;
  rows.push_back(row);
  bad_trials["rows"] = rows;
  EXPECT_FALSE(validate_report_json(bad_trials).empty());
}

TEST(ObsReport, SchemaVersionFormatsWithoutTrailingZeros) {
  EXPECT_EQ(format_schema_version(1.0), "1");
  EXPECT_EQ(format_schema_version(2.0), "2");
  EXPECT_EQ(format_schema_version(2.1), "2.1");
}

// Writers emit 2.1; v1 and v2 documents from older builds must keep
// validating, anything else must not.  The "profile" block is the one 2.1
// addition, so older versions carrying it are corrupt.
TEST(ObsReport, ValidatorAcceptsEverySupportedSchemaVersion) {
  const json_value good = make_fixture_report().to_json();
  ASSERT_NE(good.find("schema_version"), nullptr);
  EXPECT_DOUBLE_EQ(good.find("schema_version")->as_double(), 2.1);

  // Every fixture row carries samples or a value, so rewinding the version
  // field alone yields a well-formed older document.
  for (const double version : {1.0, 2.0, 2.1}) {
    json_value doc = good;
    doc["schema_version"] = json_value{version};
    EXPECT_TRUE(validate_report_json(doc).empty()) << version;
  }
  for (const double version : {0.0, 2.2, 3.0}) {
    json_value doc = good;
    doc["schema_version"] = json_value{version};
    EXPECT_FALSE(validate_report_json(doc).empty()) << version;
  }
}

TEST(ObsReport, ProfileBlockRequiresSchema21) {
  bench_report r = make_fixture_report();
  json_value profile = json_value::object();
  profile["schema"] = json_value{"ssr.profile"};
  profile["sections"] = json_value::array();
  r.profile = profile;

  const json_value with_profile = r.to_json();
  EXPECT_TRUE(validate_report_json(with_profile).empty());

  json_value downgraded = with_profile;
  downgraded["schema_version"] = json_value{2.0};
  const auto problems = validate_report_json(downgraded);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("profile"), std::string::npos);

  json_value bad_type = with_profile;
  bad_type["profile"] = json_value{"not an object"};
  EXPECT_FALSE(validate_report_json(bad_type).empty());

  // The block is carried opaquely through parse/serialize.
  std::string error;
  const auto back = bench_report::from_json(with_profile, &error);
  ASSERT_TRUE(back.has_value()) << error;
  ASSERT_TRUE(back->profile.has_value());
  EXPECT_TRUE(back->to_json() == with_profile);
}

TEST(ObsReport, FromJsonReportsFirstProblem) {
  json_value broken = make_fixture_report().to_json();
  broken["engine"] = json_value::object();
  std::string error;
  EXPECT_FALSE(bench_report::from_json(broken, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ObsReport, ReportFilename) {
  EXPECT_EQ(report_filename("E3"), "BENCH_E3.json");
}

TEST(ObsReport, WriteReportProducesValidFile) {
  const bench_report r = make_fixture_report();
  const std::string path = write_report(r, ::testing::TempDir());
  ASSERT_FALSE(path.empty());
  const auto parsed = json_value::parse(slurp(path));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(validate_report_json(*parsed).empty());
}

}  // namespace
}  // namespace ssr::obs
