// The linted-protocol registry: every protocol the library ships, under a
// stable CLI name, with its documented claims and the check composition
// that machine-verifies them (docs/static_analysis.md).
//
// Visible entries are the nine protocols the CI gate runs `protocol_lint
// --strict` over.  Hidden entries are the deliberately broken fixtures
// (fixture.hpp) that prove each check fires; they are excluded from default
// runs and selectable with --protocol <name> or --include-broken.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/protocol_lint/checks.hpp"
#include "protocols/sublinear.hpp"
#include "verify/model_check/model_check.hpp"

namespace ssr::lint {

/// What the protocol's documentation claims; drives which checks apply and
/// is printed by `protocol_lint --list`.
struct protocol_claims {
  bool deterministic = false;    // interact() never consults the rng
  bool enumerable = false;       // all_states() covers the state space
  bool ranking = false;          // exposes a 1..n rank output map
  bool batch_countable = false;  // declares the batched-engine partition
  bool self_stabilizing = false;
  bool silent = false;
};

/// Exact model-checking attachment (verify/model_check): entries with an
/// enumerable inventory and deterministic transitions expose a builder for
/// their configuration graph, and the model pass (L014-L017 and the model
/// table of protocol_lint, bench_modelcheck) runs on it for n <= max_n.
struct model_attachment {
  /// Builds the weighted configuration digraph at population size n.
  /// Throws std::logic_error when a transition escapes the inventory.
  std::function<verify::config_graph(std::uint32_t n)> build;
  /// Largest n the exhaustive pass runs at; configuration spaces grow as
  /// C(n+k-1, n), so this is sized per entry from measured check times.
  std::uint32_t max_n = 4;
  /// Declared worst-case expected-interaction budget as a function of n
  /// (L016 fires when the exact worst case exceeds it); absent = no claim.
  std::function<double(std::uint32_t n)> budget;
};

struct protocol_entry {
  std::string name;     // stable CLI name
  std::string summary;  // one line for --list
  protocol_claims claims;
  bool hidden = false;  // broken fixtures; excluded from default runs
  /// Runs every applicable check at population size n, emitting findings
  /// into ctx.
  std::function<void(std::uint32_t n, lint_context& ctx)> run;
  /// Exact configuration-space model checking; nullopt for protocols whose
  /// state space cannot be enumerated (Sublinear-Time-SSR) or is too large
  /// under the shipped tuning (optimal-default).
  std::optional<model_attachment> model = std::nullopt;
};

/// The full registry, visible entries first.  Order is stable output order.
const std::vector<protocol_entry>& lint_registry();

/// Entry lookup by CLI name; nullptr when unknown.
const protocol_entry* find_protocol(std::string_view name);

/// All registry names in order (visible only unless include_hidden), for
/// --list and the nearest-name suggestion on unknown protocols.
std::vector<std::string> registry_names(bool include_hidden);

/// Structural legality of a Sublinear-Time-SSR agent in the *declared*
/// space -- what adversarial starting states may look like -- as the
/// sublinear entries check it: a violation message, or nullopt.  Rosters
/// may exceed n here; ghost names are exactly the error the protocol
/// detects.
std::optional<std::string> sublinear_state_violation(
    const sublinear_time_ssr& p, const sublinear_time_ssr::agent_state& s);

}  // namespace ssr::lint
