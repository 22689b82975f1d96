// Run bundles: one self-describing artifact directory per scenario run.
//
// `ssr_cli run <scenario.json> --out <dir>` and each job the serve daemon
// runs with a telemetry dir persist this layout (docs/bundles.md):
//
//   <dir>/scenario.json         canonical ssr.scenario v1 (obs/scenario.hpp)
//   <dir>/run.json              ssr.run v1: spec echo, per-trial samples,
//                               stats, aggregated engine counters.  NO
//                               timestamps and no git_rev: a pure function
//                               of (scenario, seed), so identical reruns
//                               are byte-identical.
//   <dir>/events.jsonl          ssr.events v1 job journal (obs/journal.hpp)
//   <dir>/trace.jsonl           ssr.trace v2, optional -- the exact format
//                               tools/trace_stats parses
//   <dir>/profile.json          ssr.profile, optional
//   <dir>/metrics.prom          Prometheus exposition snapshot, optional
//   <dir>/summary.md            human-readable digest of run.json
//   <dir>/bundle_manifest.json  ssr.bundle_manifest v1: provenance
//                               (git_rev, created_unix_ms) plus per-file
//                               {path, bytes, sha256, schema,
//                               schema_version, deterministic}
//
// The manifest is the trust anchor: verify_bundle() recomputes every
// sha256, so a bundle that passes verification is exactly what the run
// wrote.  Provenance lives ONLY in the manifest (and the journal), which
// is what keeps run.json deterministic and lets baseline compares diff
// reruns byte-for-byte.
//
// Baselines and gating: baseline_document() freezes a verified bundle's
// run.json into an ssr.baseline v1 document keyed by the spec
// fingerprint; compare_against_baseline() rebuilds report rows from both
// sides and routes them through the shared regression gate
// (obs/report_compare.hpp) -- the same KS + direction + tolerance logic
// report_trend applies -- so `ssr_cli compare` can never
// disagree with the bench CI gates about what counts as a regression.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/engine_counters.hpp"
#include "obs/json.hpp"
#include "obs/report_compare.hpp"
#include "obs/scenario.hpp"

namespace ssr::obs {

inline constexpr std::string_view run_schema_name = "ssr.run";
inline constexpr std::uint64_t run_schema_version = 1;
inline constexpr std::string_view bundle_manifest_schema_name =
    "ssr.bundle_manifest";
inline constexpr std::uint64_t bundle_manifest_schema_version = 1;
inline constexpr std::string_view baseline_schema_name = "ssr.baseline";
inline constexpr std::uint64_t baseline_schema_version = 1;
inline constexpr std::string_view events_schema_name = "ssr.events";

/// Provenance recorded in the manifest (and baseline documents) only --
/// never in run.json.  Zero/empty fields are filled with the real git
/// revision and wall clock; tests pin both for golden fixtures.
struct bundle_provenance {
  std::string git_rev;
  std::uint64_t created_unix_ms = 0;
};

/// Builds the deterministic run.json document from the runner's result
/// document (serve/runner.hpp layout) and the counters aggregated across
/// every trial.
json_value run_document(const scenario_doc& scenario,
                        const json_value& result,
                        const engine_counters& counters);

/// Renders summary.md from a run document.
std::string render_summary(const scenario_doc& scenario,
                           const json_value& run_doc);

/// Optional artifacts write_run_bundle persists next to the core files.
struct bundle_artifacts {
  /// Pre-rendered trace.jsonl content (ssr.trace v2); null = no trace.
  const std::string* trace_jsonl = nullptr;
  /// Profile document (ssr.profile); null = no profile.
  const json_value* profile = nullptr;
  /// Prometheus exposition snapshot; empty = no metrics.prom.
  std::string metrics_prom;
  /// True when <dir>/events.jsonl was already streamed by a journal; the
  /// manifest then hashes and lists the existing file.
  bool events = false;
};

struct bundle_result {
  bool ok = false;
  std::string error;
  std::string dir;
  std::string manifest_path;
  /// The run.json document, for callers that print or persist it further.
  json_value run_doc;
};

/// Writes the bundle files into `dir` (created if needed) and finalizes
/// bundle_manifest.json.  `result` is the runner's result document.
bundle_result write_run_bundle(const std::string& dir,
                               const scenario_doc& scenario,
                               const json_value& result,
                               const engine_counters& counters,
                               const bundle_artifacts& artifacts = {},
                               bundle_provenance provenance = {});

struct manifest_check {
  std::vector<std::string> problems;
  std::size_t files_checked = 0;
  bool ok() const { return problems.empty(); }
};

/// Loads <dir>/bundle_manifest.json and recomputes every listed file's
/// sha256; any missing file, size mismatch, or digest mismatch is one
/// problem line.
manifest_check verify_bundle(const std::string& dir);

/// Reads and parses a JSON file; nullopt with *error set on failure.
std::optional<json_value> load_json_file(const std::string& path,
                                         std::string* error);

/// Freezes a bundle's run.json into an ssr.baseline v1 document.
json_value baseline_document(const json_value& run_doc,
                             bundle_provenance provenance = {});

struct metric_verdict {
  std::string key;
  row_verdict verdict;
};

struct bundle_comparison {
  bool ok = false;        // false = documents unusable (schema/fingerprint)
  std::string error;
  int compared = 0;
  int regressions = 0;
  std::vector<metric_verdict> verdicts;
};

/// Compares a bundle's run.json against a baseline document through the
/// shared per-metric gates.  Refuses (ok = false) when the fingerprints
/// differ -- comparing different specs is meaningless, not a regression.
bundle_comparison compare_against_baseline(const json_value& run_doc,
                                           const json_value& baseline_doc,
                                           const compare_limits& limits = {});

}  // namespace ssr::obs
