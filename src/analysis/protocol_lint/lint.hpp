// Linter orchestration: runs the registered check compositions and the
// exact model pass over a protocol/population grid, and aggregates the
// findings and model runs into the report protocol_lint renders as tables
// or as the ssr.lint JSON document (docs/static_analysis.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/protocol_lint/finding.hpp"
#include "analysis/protocol_lint/model_check.hpp"
#include "analysis/protocol_lint/registry.hpp"
#include "obs/json.hpp"

namespace ssr::lint {

struct lint_options {
  /// Registry names to lint; empty = every visible entry.
  std::vector<std::string> protocols;
  /// Population sizes; the checks are exhaustive proofs, so small n is the
  /// point, not a shortcut (state spaces grow combinatorially).
  std::vector<std::uint32_t> n_values = {2, 3, 4};
  /// Also lint the hidden broken fixtures when no explicit protocol list is
  /// given.
  bool include_hidden = false;
};

struct lint_report {
  std::vector<finding> findings;
  /// What was linted, in run order.
  std::vector<std::string> protocols;
  std::vector<std::uint32_t> n_values;
  /// The exact model pass, in run order: one run per (entry, n) it covers
  /// and one skip, with its reason, per (entry, n) it does not.
  std::vector<model_run> runs;
  std::vector<model_skip> skipped;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t notes = 0;

  /// Gate-relevant findings: errors always; warnings only under --strict;
  /// notes never (they report legal-but-informational facts, e.g. states
  /// reachable only through deserialization).
  std::size_t violations(bool strict) const {
    return errors + (strict ? warnings : 0);
  }
  bool passed(bool strict) const { return violations(strict) == 0; }
};

/// Runs the linter.  Throws std::invalid_argument on an unknown protocol
/// name, with a nearest-name suggestion when one is close enough.
lint_report run_lint(const lint_options& options);

/// Registry lookup that throws std::invalid_argument with a nearest-name
/// suggestion on unknown names ("unknown protocol 'basline'; did you mean
/// 'baseline'?") -- shared by run_lint and bench_modelcheck.
const protocol_entry& resolve_protocol_entry(const std::string& name);

/// The ssr.lint v2 document: {schema, version, tool, strict, protocols, n,
/// findings[], summary{errors,warnings,notes,violations,passed}, runs[],
/// skipped[]}.
obs::json_value to_json(const lint_report& report, bool strict);

/// Per-protocol verdict table, the model table with its skip reasons, one
/// line per finding, and the PASS/FAIL summary.
std::string render_report(const lint_report& report, bool strict);

}  // namespace ssr::lint
