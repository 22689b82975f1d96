// Versioned, machine-readable benchmark reports.
//
// Every bench binary (and the CLI with --json) writes one BENCH_<id>.json
// artifact per run through this layer.  The schema (version 2.1, validated
// by validate_report_json and documented in docs/observability.md) is:
//
//   {
//     "schema_version": 2.1,
//     "experiment":  "E3",              // experiment id from ROADMAP.md
//     "title":       "...",             // human-readable banner
//     "binary":      "bench_states",
//     "engine":      "batched",         // engine the run selected
//     "git_rev":     "abc123...",       // or "unknown"
//     "generated_unix": 1754349000,     // seconds since epoch, 0 if unknown
//     "argv":        ["--engine=batched", ...],
//     "wall_time_seconds": 12.5,
//     "rows": [ <sample row> | <value row>, ... ],
//     "metrics":     { "<name>": <number|histogram object>, ... },
//     "profile":     { ... }           // optional (2.1+): timeline profile
//   }
//
// A *sample row* carries the raw per-trial measurements plus derived stats
// (so report_trend can re-test distributions, not just compare means):
//
//   { "kind": "samples", "section": "stabilization", "protocol":
//     "optimal_silent", "n": 1024, "params": "scenario=uniform_random",
//     "trials": 60, "seed": 1042, "unit": "parallel_time",
//     "direction": "lower_is_better",
//     "samples": [ ... ],
//     "stats": { "count":..., "mean":..., "median":..., "stddev":...,
//                "ci95":..., "p90":..., "p99":..., "min":..., "max":... } }
//
// Version 2 additionally allows a sample row to omit "samples" when it
// carries a "stats" block -- the percentiles then come from a streaming
// quantile sketch (obs/quantile_sketch.hpp) instead of retained samples,
// so unbounded-trial runs stay bounded-size.  Version-1 documents (no
// "count" in stats, "samples" always present) remain readable: from_json
// and validate_report_json accept both, and report_trend falls back from
// the KS gate to a confidence-interval gate when either side is
// stats-only.
//
// A *value row* carries a single derived number (throughput rates etc.):
//
//   { "kind": "value", "section": "throughput", "metric":
//     "interactions_per_second", "protocol": "...", "n": 1048576,
//     "params": "", "value": 1.2e9, "unit": "1/s",
//     "direction": "higher_is_better" }
//
// Rows are identified across reports by (section, protocol, n, params) --
// report_trend joins on that tuple.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/statistics.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_info.hpp"  // git_revision(), recorded in every report

namespace ssr::obs {

/// Written schema.  Versions are doubles so point revisions (2 -> 2.1, the
/// optional "profile" block) stay readable by integer-era consumers: a v2
/// reader truncating 2.1 to 2 sees a valid v2 document, because 2.1 only
/// *adds* an optional member.
inline constexpr double report_schema_version = 2.1;
/// Oldest schema from_json / validate_report_json still accept.
inline constexpr int min_report_schema_version = 1;
/// "2.1" for 2.1, "2" for 2.0 -- trailing ".0" dropped for messages and
/// round numbers.
std::string format_schema_version(double version);

struct report_row {
  enum class kind_t : std::uint8_t { samples, value };

  kind_t kind = kind_t::samples;
  std::string section;
  std::string protocol;
  std::uint64_t n = 0;
  std::string params;  // "key=value key=value", "" when none
  std::string unit;
  bool lower_is_better = true;

  // kind_t::samples
  std::uint64_t trials = 0;
  std::uint64_t seed = 0;
  std::vector<double> samples;
  /// Summary statistics.  Computed from `samples` on serialization when
  /// absent; a row with stats but no samples is a v2 sketch-backed row.
  std::optional<summary> stats;

  // kind_t::value
  std::string metric;
  double value = 0.0;

  /// Join key used by report_trend to match rows across reports.
  std::string key() const;

  /// Best available central estimate: stats->mean, else mean of samples,
  /// else `value` for value rows.  NaN when the row is empty.
  double mean_estimate() const;
};

/// Summary derived from a histogram snapshot: mean and (sample) stddev
/// from the moment sums, percentiles from the quantile sketch.  This is
/// what sketch-backed v2 rows embed.
summary summary_from_histogram(const histogram::snapshot_data& data);

struct bench_report {
  std::string experiment;
  std::string title;
  std::string binary;
  std::string engine;
  std::string git_rev;
  std::int64_t generated_unix = 0;
  std::vector<std::string> argv;
  double wall_time_seconds = 0.0;
  std::vector<report_row> rows;
  json_value metrics = json_value::object();
  /// Optional profiling block (schema >= 2.1): the timeline_profile JSON
  /// emitted under --profile (obs/timeline.hpp).  Carried opaquely --
  /// serialization round-trips it, but nothing here interprets it.
  std::optional<json_value> profile;

  report_row& add_samples(std::string section, std::string protocol,
                          std::uint64_t n, std::string params,
                          std::uint64_t trials, std::uint64_t seed,
                          std::string unit, std::vector<double> samples);
  /// Sketch-backed sample row (v2): stats only, no retained samples.
  /// `trials` is taken from stats.count.
  report_row& add_summary(std::string section, std::string protocol,
                          std::uint64_t n, std::string params,
                          std::uint64_t seed, std::string unit,
                          const summary& stats);
  report_row& add_value(std::string section, std::string metric,
                        std::string protocol, std::uint64_t n,
                        std::string params, double value, std::string unit,
                        bool higher_is_better = true);

  json_value to_json() const;
  static std::optional<bench_report> from_json(const json_value& v,
                                               std::string* error = nullptr);
};

/// Schema check; returns the empty vector when `v` is a valid report of
/// any supported version (1, 2, or 2.1), else one human-readable message
/// per violation.
std::vector<std::string> validate_report_json(const json_value& v);

/// "BENCH_<experiment>.json".
std::string report_filename(std::string_view experiment);

/// Writes `report.to_json().dump(2)` to `<out_dir>/BENCH_<experiment>.json`
/// (out_dir "" means the current directory; the directory must exist).
/// Returns the path written, or "" on I/O failure.
std::string write_report(const bench_report& report, std::string_view out_dir);

}  // namespace ssr::obs
