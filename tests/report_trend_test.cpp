// The cross-revision trend pipeline rests on two pieces tested here: the
// shared regression gate (obs/report_compare.hpp) that report_trend and
// `ssr_cli compare` both apply, and the v2 report schema that lets history
// entries carry sketch-backed stats instead of retained samples.
#include "obs/report_compare.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace ssr::obs {
namespace {

report_row samples_row(std::vector<double> samples,
                       bool lower_is_better = true) {
  report_row row;
  row.kind = report_row::kind_t::samples;
  row.section = "stabilization";
  row.protocol = "optimal_silent";
  row.n = 64;
  row.unit = "parallel_time";
  row.lower_is_better = lower_is_better;
  row.trials = samples.size();
  row.samples = std::move(samples);
  return row;
}

report_row stats_row(double mean, double stddev, std::size_t count) {
  report_row row;
  row.kind = report_row::kind_t::samples;
  row.section = "stabilization";
  row.protocol = "optimal_silent";
  row.n = 64;
  row.unit = "parallel_time";
  row.trials = count;
  summary s;
  s.count = count;
  s.mean = mean;
  s.stddev = stddev;
  s.stderr_mean = stddev / std::sqrt(static_cast<double>(count));
  s.median = mean;
  s.min = mean - 2 * stddev;
  s.max = mean + 2 * stddev;
  s.p90 = mean + stddev;
  s.p99 = mean + 2 * stddev;
  row.stats = s;
  return row;
}

std::vector<double> around(double center, std::size_t count) {
  std::vector<double> v(count);
  for (std::size_t i = 0; i < count; ++i) {
    v[i] = center + 0.01 * static_cast<double>(i);
  }
  return v;
}

// The stable/stable/2x-slowdown scenario report_trend judges between the
// oldest and newest revision: identical samples pass clean, the doubled
// row fires.
TEST(ReportCompare, FlagsSlowdownAndPassesIdenticalSamples) {
  const report_row stable = samples_row(around(10.0, 20));
  const report_row still_stable = samples_row(around(10.0, 20));
  const report_row doubled = samples_row(around(20.0, 20));

  const row_verdict clean = compare_rows(stable, still_stable);
  EXPECT_TRUE(clean.comparable);
  EXPECT_FALSE(clean.regression);  // KS p = 1 on identical samples

  const row_verdict drift = compare_rows(stable, doubled);
  EXPECT_TRUE(drift.regression);
  EXPECT_GT(drift.worse, 0.9);
}

TEST(ReportCompare, ImprovementAndShapeOnlyShiftDoNotFire) {
  const report_row base = samples_row(around(10.0, 20));
  // 2x faster: significant by KS, but in the good direction.
  EXPECT_FALSE(compare_rows(base, samples_row(around(5.0, 20))).regression);
  // Significant shift, but under the 10% mean tolerance.
  EXPECT_FALSE(
      compare_rows(base, samples_row(around(10.5, 20))).regression);
  // higher_is_better flips the bad direction.
  const report_row rate_base = samples_row(around(10.0, 20), false);
  const report_row rate_halved = samples_row(around(5.0, 20), false);
  EXPECT_TRUE(compare_rows(rate_base, rate_halved).regression);
}

TEST(ReportCompare, StatsOnlyRowsUseConfidenceIntervalGate) {
  const report_row base = stats_row(10.0, 0.5, 100);
  // 2x slower with tight CIs: fires without any retained samples.
  const row_verdict drift = compare_rows(base, stats_row(20.0, 0.5, 100));
  EXPECT_TRUE(drift.comparable);
  EXPECT_TRUE(drift.regression);
  EXPECT_NE(drift.detail.find("stats-only"), std::string::npos);
  // 15% worse but the CIs swallow the gap: not significant.
  EXPECT_FALSE(
      compare_rows(stats_row(10.0, 8.0, 4), stats_row(11.5, 8.0, 4))
          .regression);
  // Mixed: samples on one side, stats on the other, still comparable.
  const row_verdict mixed =
      compare_rows(samples_row(around(10.0, 20)), stats_row(20.0, 0.5, 100));
  EXPECT_TRUE(mixed.comparable);
  EXPECT_TRUE(mixed.regression);
}

TEST(ReportCompare, ValueRowsUseGenerousTolerance) {
  report_row base;
  base.kind = report_row::kind_t::value;
  base.section = "throughput";
  base.metric = "interactions_per_second";
  base.unit = "1/s";
  base.lower_is_better = false;
  base.value = 1e9;
  report_row wobble = base;
  wobble.value = 0.8e9;  // -20%: within the 33% value tolerance
  EXPECT_FALSE(compare_rows(base, wobble).regression);
  report_row collapsed = base;
  collapsed.value = 0.5e9;  // -50%: fires
  EXPECT_TRUE(compare_rows(base, collapsed).regression);
}

// --- schema v2 ---------------------------------------------------------

TEST(ReportV2, SketchBackedRowRoundTripsWithoutSamples) {
  metrics_registry registry;
  histogram& h = registry.get_histogram("trial.seconds");
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));

  bench_report report;
  report.experiment = "T1";
  report.binary = "bench_test";
  report.engine = "direct";
  report.git_rev = "deadbeef";
  report.add_summary("stabilization", "optimal_silent", 64, "", 42,
                     "parallel_time", summary_from_histogram(h.snapshot()));

  const json_value doc = report.to_json();
  EXPECT_EQ(doc.find("schema_version")->as_int64(), 2);
  EXPECT_TRUE(validate_report_json(doc).empty());
  const json_value& row = doc.find("rows")->at(0);
  EXPECT_EQ(row.find("samples"), nullptr);  // no retained samples
  ASSERT_NE(row.find("stats"), nullptr);
  EXPECT_EQ(row.find("trials")->as_uint64(), 1000u);

  const auto parsed = bench_report::from_json(doc);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->rows.size(), 1u);
  const report_row& parsed_row = parsed->rows.front();
  EXPECT_TRUE(parsed_row.samples.empty());
  ASSERT_TRUE(parsed_row.stats.has_value());
  EXPECT_NEAR(parsed_row.stats->mean, 500.5, 1e-9);
  // Sketch percentiles land within the 2% relative-error budget.
  EXPECT_NEAR(parsed_row.stats->median, 500.5, 0.02 * 500.5);
  EXPECT_NEAR(parsed_row.stats->p99, 990.0, 0.02 * 990.0);
  // Exact sample stddev of 1..1000 is sqrt(N(N+1)/12) with N=1000.
  EXPECT_NEAR(parsed_row.stats->stddev, 288.82, 0.5);
}

TEST(ReportV2, Version1DocumentsStillValidateAndParse) {
  bench_report report;
  report.experiment = "T2";
  report.binary = "bench_test";
  report.engine = "direct";
  report.git_rev = "deadbeef";
  report.add_samples("stabilization", "baseline", 32, "", 3, 7,
                     "parallel_time", {1.0, 2.0, 3.0});
  json_value doc = report.to_json();
  doc["schema_version"] = json_value{1};  // as written by older builds
  EXPECT_TRUE(validate_report_json(doc).empty());
  const auto parsed = bench_report::from_json(doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->rows.front().samples.size(), 3u);
}

TEST(ReportV2, StatsOnlyRowsAreInvalidInVersion1) {
  bench_report report;
  report.experiment = "T3";
  report.binary = "bench_test";
  report.engine = "direct";
  report.git_rev = "deadbeef";
  summary s;
  s.count = 10;
  s.mean = 1.0;
  report.add_summary("stabilization", "baseline", 32, "", 7,
                     "parallel_time", s);
  json_value doc = report.to_json();
  EXPECT_TRUE(validate_report_json(doc).empty());
  doc["schema_version"] = json_value{1};  // v1 requires the sample array
  EXPECT_FALSE(validate_report_json(doc).empty());
}

TEST(ReportV2, UnsupportedVersionsAreRejected) {
  bench_report report;
  report.experiment = "T4";
  report.binary = "bench_test";
  report.engine = "direct";
  report.git_rev = "deadbeef";
  json_value doc = report.to_json();
  doc["schema_version"] = json_value{3};
  EXPECT_FALSE(validate_report_json(doc).empty());
  doc["schema_version"] = json_value{0};
  EXPECT_FALSE(validate_report_json(doc).empty());
}

}  // namespace
}  // namespace ssr::obs
