// One simulation request, as every front end understands it.
//
// ssr_cli, the bench binaries, and the ssr_serve daemon all accept the
// same logical request -- (protocol, scenario, n, h, t_max, trials, seed,
// max_time, engine, shards) -- but historically each parsed and validated
// it separately, so a typo'd protocol name produced three different error
// messages and --shards was validated nowhere.  This helper is the single
// source of truth: a spec_builder accumulates raw field values (text from
// command lines, typed values from JSON requests), finalize() runs the
// cross-field validation, and every front end renders the same
// field-level errors -- including the nearest-name suggestions -- so bad
// specs are rejected identically at the CLI, the benches, and the wire.
//
// The canonical() form doubles as the serve layer's cache fingerprint:
// deterministic seeds make simulation results pure functions of the spec,
// and canonical() materializes every default and drops fields the selected
// protocol ignores (h for non-sublinear, t_max for non-loose, shards for
// non-sharded), so two requests that differ only in field order or in
// irrelevant fields map to the same cache entry.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "pp/engine.hpp"

namespace ssr::util {

/// One field-level validation error; `field` names the offending request
/// field ("protocol", "engine", "shards", ...), `message` is the shared
/// human-readable diagnostic.
struct spec_error {
  std::string field;
  std::string message;

  friend bool operator==(const spec_error&, const spec_error&) = default;
};

/// "field: message; field: message" -- the single-line rendering the CLI
/// front ends print (the serve wire keeps the structured list).
std::string render_errors(std::span<const spec_error> errors);

struct sim_request_spec {
  std::string protocol = "optimal";
  std::string scenario = "uniform_random";
  std::uint32_t n = 32;
  std::uint32_t h = 1;       // sublinear history depth
  std::uint32_t t_max = 0;   // loose timeout; 0 = 4 log2 n
  std::uint64_t trials = 1;
  std::uint64_t seed = 1;
  double max_time = 1e7;     // parallel-time budget per trial
  engine_spec engine{};

  /// Deterministic fingerprint: fixed field order, every default
  /// materialized, protocol-irrelevant fields omitted.  Equal canonical
  /// strings imply bit-identical simulation results (same trajectories,
  /// same samples), which is what makes the serve result cache exact.
  std::string canonical() const;

  friend bool operator==(const sim_request_spec&,
                         const sim_request_spec&) = default;
};

/// Valid protocol names, in the order --list-protocols prints them.
std::span<const std::string_view> protocol_names();

/// Valid scenario names for `protocol` (empty span for unknown protocols).
std::span<const std::string_view> scenario_names(std::string_view protocol);

/// Accumulates raw request fields and produces the validated spec plus
/// every field error.  Text setters parse and record syntax errors with
/// the field name; typed setters take already-typed values (JSON numbers).
/// finalize() then applies the cross-field rules:
///
///   * protocol and engine names must be known (nearest-name suggestion);
///   * the scenario must belong to the protocol's scenario set;
///   * n >= 2, trials >= 1, max_time > 0, h >= 1 for sublinear;
///   * max_time * n < 2^64, since run loops cap a trial at that many
///     interactions in a 64-bit count;
///   * shards may only be given with engine=sharded, and an explicit
///     shards=0 is rejected (omit the field for hardware concurrency) --
///     nothing is silently clamped or ignored.
class spec_builder {
 public:
  void set_protocol(std::string_view v);
  void set_scenario(std::string_view v);
  void set_engine(std::string_view v);
  void set_shards(std::uint64_t v);
  void set_n(std::uint64_t v);
  void set_h(std::uint64_t v);
  void set_t_max(std::uint64_t v);
  void set_trials(std::uint64_t v);
  void set_seed(std::uint64_t v);
  void set_max_time(double v);

  /// Parses `text` as an unsigned integer for `field` ("n", "h", "t_max",
  /// "trials", "seed", "shards"); records a field error on bad syntax or
  /// unknown field name.
  void set_u64_text(std::string_view field, std::string_view text);
  /// Parses `text` as a positive double for max_time.
  void set_max_time_text(std::string_view text);

  /// True once any setter recorded a value for `scenario` (front ends use
  /// this to keep protocol-specific defaults).
  bool scenario_given() const { return scenario_given_; }
  bool shards_given() const { return shards_given_; }

  /// Runs the cross-field validation; returns all errors in a stable
  /// field order (empty = valid).  Idempotent.
  std::vector<spec_error> finalize();

  /// The spec as accumulated so far; meaningful after a clean finalize().
  const sim_request_spec& spec() const { return spec_; }

 private:
  sim_request_spec spec_;
  std::string engine_text_;
  bool engine_given_ = false;
  bool shards_given_ = false;
  bool scenario_given_ = false;
  std::vector<spec_error> syntax_errors_;
};

/// Per-request telemetry options -- the wire-level "trace" / "profile"
/// request fields (docs/serving.md, "Wire telemetry").  Deliberately NOT
/// part of sim_request_spec: telemetry never changes the simulated
/// trajectory, so it must not enter canonical() or the result-cache
/// fingerprint.
struct telemetry_spec {
  bool trace = false;
  /// Keep every k-th phase_transition event (obs::trace_options).
  std::uint64_t trace_sample_every = 1;
  /// Buffered-event cap for the per-request sink.
  std::uint64_t trace_max_events = 1u << 20;
  bool profile = false;

  bool any() const { return trace || profile; }

  friend bool operator==(const telemetry_spec&,
                         const telemetry_spec&) = default;
};

/// Valid sub-fields of the "trace" request object, for diagnostics.
std::span<const std::string_view> trace_option_names();

/// Accumulates and validates the wire telemetry options, mirroring
/// spec_builder so every front end rejects a bad "trace" object with the
/// same field-level errors and nearest-name suggestions ("sample_evry"
/// must fail loudly, not silently trace with defaults).
class telemetry_builder {
 public:
  void set_trace_enabled(bool v);
  /// Sets "trace.<name>" from a typed value; unknown names record a
  /// field error with a nearest-name suggestion.
  void set_trace_option(std::string_view name, std::uint64_t value);
  void set_profile(bool v);

  /// Cross-field validation: sample_every >= 1, max_events >= 1.
  /// Idempotent; empty = valid.
  std::vector<spec_error> finalize();

  const telemetry_spec& spec() const { return spec_; }

 private:
  telemetry_spec spec_;
  std::vector<spec_error> errors_;
};

/// Strict unsigned-integer parse (digits only, no sign, no overflow
/// checking beyond 64 bits); nullopt on anything else.
std::optional<std::uint64_t> parse_u64(std::string_view text);

/// Shared diagnostics (also used for flags outside the spec, e.g. unknown
/// bench arguments): "unknown <what> '<given>' (did you mean <near>?)",
/// with the suggestion clause dropped when nothing is close.
std::string unknown_name_message(std::string_view what, std::string_view given,
                                 std::span<const std::string_view> candidates);

}  // namespace ssr::util
