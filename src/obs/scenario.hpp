// The `ssr.scenario` v1 document: one declarative simulation scenario.
//
// A scenario file is the single input of `ssr_cli run`, and a serve
// wire "run" request is one plus five transport fields (docs/bundles.md
// has the schema table):
//
//   { "schema": "ssr.scenario", "schema_version": 1,
//     "name": "optimal_no_leader",          // bundle / baseline key
//     "description": "...",                 // optional, human-readable
//     "protocol": "optimal", "scenario": "no_leader", "n": 24,
//     "h": 2,                               // sublinear only
//     "t_max": 40,                          // loose only
//     "trials": 20, "seed": 3, "max_time": 1e7,
//     "engine": "batched",                  // direct | batched
//     "trace": true | {"enabled":..,"sample_every":..,"max_events":..},
//     "profile": true,                      // optional
//     "metrics": true }                     // emit metrics.prom
//
// Parsing routes every spec-shaped field through util::spec_builder and
// util::telemetry_builder -- the same single source of truth the CLI
// flags, the benches, and the serve wire use -- so a typo'd protocol name
// or an unknown engine produces byte-identical field-level errors
// (including nearest-name suggestions) no matter which front end read the
// document, and the spec's canonical() fingerprint is shared with the
// serve result cache.
//
// scenario_to_json() canonicalizes: fixed field order, defaults
// materialized, protocol-irrelevant fields dropped -- the run bundle
// persists this form, so two scenario files that differ only in field
// order or irrelevant fields produce byte-identical bundles.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "util/request_spec.hpp"

namespace ssr::obs {

inline constexpr std::string_view scenario_schema_name = "ssr.scenario";
inline constexpr std::uint64_t scenario_schema_version = 1;

struct scenario_doc {
  /// Bundle / baseline key; must be a safe file stem ([A-Za-z0-9._-]).
  std::string name;
  std::string description;
  util::sim_request_spec spec;
  util::telemetry_spec telemetry;
  /// Persist a metrics.prom exposition snapshot in the bundle.
  bool emit_metrics = false;
};

/// Valid top-level scenario fields, for diagnostics.
std::span<const std::string_view> scenario_field_names();

/// Parses and validates one scenario document.  On failure returns
/// nullopt with every field-level error in `errors` (never partially
/// filled); on success `errors` is left empty.
std::optional<scenario_doc> parse_scenario(const json_value& doc,
                                           std::vector<util::spec_error>*
                                               errors);

/// parse_scenario over raw text; malformed JSON lands in `errors` under
/// the pseudo-field "json".
std::optional<scenario_doc> parse_scenario_text(std::string_view text,
                                                std::vector<util::spec_error>*
                                                    errors);

/// The canonical serialization (see header comment).
json_value scenario_to_json(const scenario_doc& doc);

}  // namespace ssr::obs
