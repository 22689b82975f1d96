// Templated building blocks of the protocol linter.
//
// Each check verifies one structural invariant of a population protocol
// *statically*, i.e. from the declared state inventory and the transition
// function alone -- no sampled trajectories stand between the claim and the
// verdict.  The checks are deliberately small and composable; the registry
// (registry.cpp) picks the subset that applies to each protocol's claims:
//
//   check_transition_table   closure, totality, stability and the
//                            change-flag contract over every ordered pair
//   check_rank_range         rank_of stays in {0..n} on the whole inventory
//   check_state_count        inventory size == the declared Table-1 count
//   check_batch_partition    the batched engine's inert-key contract
//   check_terminal_components  silence + self-stabilization via the
//                            exhaustive configuration-space verifier
//   check_dead_states        declared states nothing ever produces (notes)
//   check_sampled_run        bounded dynamic sweep for protocols whose state
//                            space cannot be enumerated (Sublinear-Time-SSR)
//
// Protocols with enumerable inventories get proofs; the sampled sweep is
// the documented fallback, not a substitute (docs/static_analysis.md).
#pragma once

#include <array>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/protocol_lint/finding.hpp"
#include "pp/protocol.hpp"
#include "pp/random.hpp"
#include "pp/rng.hpp"
#include "verify/reachability.hpp"

namespace ssr::lint {

/// Collects findings for one (protocol, n) run, capping the entries
/// recorded per code: a systematic defect yields a few exemplars plus a
/// suppression marker instead of thousands of identical lines.
class lint_context {
 public:
  /// Findings recorded per code before the suppression marker.
  static constexpr std::size_t cap = 8;

  lint_context(std::string protocol, std::uint32_t n,
               std::vector<finding>* out)
      : protocol_(std::move(protocol)), n_(n), out_(out) {}

  void emit(finding_code code, severity sev, std::string message) {
    std::size_t& seen = counts_[static_cast<std::size_t>(code)];
    ++seen;
    if (seen < cap) {
      out_->push_back({code, sev, protocol_, n_, std::move(message)});
    } else if (seen == cap) {
      out_->push_back({code, sev, protocol_, n_,
                       "further " + std::string(to_string(code)) +
                           " findings suppressed (cap " +
                           std::to_string(cap) + " reached)"});
    }
  }

  /// Total findings seen for `code` (including suppressed ones).
  std::size_t count(finding_code code) const {
    return counts_[static_cast<std::size_t>(code)];
  }

  std::uint32_t population() const { return n_; }
  const std::string& protocol() const { return protocol_; }

 private:
  std::string protocol_;
  std::uint32_t n_;
  std::vector<finding>* out_;
  std::array<std::size_t, finding_code_count> counts_{};
};

/// How check_transition_table labels states in messages; defaults to the
/// inventory index when the protocol has no describe() rendering.
using describe_fn = std::function<std::string(std::size_t state_index)>;

inline describe_fn index_describer() {
  return [](std::size_t i) { return "state #" + std::to_string(i); };
}

/// One resolved transition: delta(a, b) = (a', b') as inventory indices.
/// `valid` is false when the pair threw or escaped the inventory.
struct delta_entry {
  std::size_t a = 0;
  std::size_t b = 0;
  bool changed = false;
  bool valid = false;
};

template <class P>
using delta_table = std::vector<std::vector<delta_entry>>;

/// Closure, totality, stability, and the change-flag contract, checked over
/// every ordered pair of inventory states:
///   * interact() must not throw (L002) and, when `deterministic`, must give
///     the same result on a second invocation with an independently seeded
///     rng (L003) -- the stability half of totality;
///   * the resulting states must be members of the declared inventory
///     (L001), which is exactly the paper's "delta : Q x Q -> Q x Q";
///   * the returned bool must equal "either state changed" (L004) -- the
///     contract silence detection and the batched engine's null-skipping
///     build on (pp/protocol.hpp).
/// Returns the delta table for downstream checks.
template <class P>
delta_table<P> check_transition_table(
    const P& p, const std::vector<typename P::agent_state>& states,
    bool deterministic, lint_context& ctx,
    const describe_fn& describe = index_describer()) {
  using state_t = typename P::agent_state;
  const std::size_t k = states.size();
  auto index_of = [&](const state_t& s) -> std::optional<std::size_t> {
    for (std::size_t i = 0; i < k; ++i) {
      if (states[i] == s) return i;
    }
    return std::nullopt;
  };

  delta_table<P> delta(k, std::vector<delta_entry>(k));
  rng_t rng_first(0x5eedf00dULL);
  rng_t rng_second(0xfeedbeefULL);
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = 0; b < k; ++b) {
      state_t x = states[a];
      state_t y = states[b];
      bool reported = false;
      try {
        reported = p.interact(x, y, rng_first);
      } catch (const std::exception& e) {
        ctx.emit(finding_code::transition_throw, severity::error,
                 "interact(" + describe(a) + ", " + describe(b) +
                     ") threw: " + e.what());
        continue;
      }
      const bool changed = !(x == states[a] && y == states[b]);
      if (changed != reported) {
        ctx.emit(finding_code::change_flag_mismatch, severity::error,
                 "interact(" + describe(a) + ", " + describe(b) +
                     ") returned " + (reported ? "true" : "false") +
                     " but the states " + (changed ? "did" : "did not") +
                     " change");
      }
      if (deterministic) {
        state_t x2 = states[a];
        state_t y2 = states[b];
        try {
          p.interact(x2, y2, rng_second);
        } catch (const std::exception&) {
          x2 = states[a];  // the throw path is already reported above
          y2 = states[b];
        }
        if (!(x2 == x && y2 == y)) {
          ctx.emit(finding_code::nondeterministic, severity::error,
                   "interact(" + describe(a) + ", " + describe(b) +
                       ") gave different results on repeated invocation");
        }
      }
      const std::optional<std::size_t> ia = index_of(x);
      const std::optional<std::size_t> ib = index_of(y);
      if (!ia || !ib) {
        ctx.emit(finding_code::closure_escape, severity::error,
                 "interact(" + describe(a) + ", " + describe(b) +
                     ") produced a state outside the declared state space (" +
                     (ia ? "responder" : "initiator") + " slot escaped)");
        continue;
      }
      delta[a][b] = {*ia, *ib, changed, true};
    }
  }
  return delta;
}

/// Rank-output soundness over the inventory: the output map may claim only
/// ranks in {1..n}, with 0 reserved for "no rank yet" (pp/protocol.hpp).
template <ranking_protocol P>
void check_rank_range(const P& p,
                      const std::vector<typename P::agent_state>& states,
                      lint_context& ctx,
                      const describe_fn& describe = index_describer()) {
  const std::uint32_t n = p.population_size();
  for (std::size_t i = 0; i < states.size(); ++i) {
    const std::uint32_t r = p.rank_of(states[i]);
    if (r > n) {
      ctx.emit(finding_code::rank_out_of_range, severity::error,
               "rank_of(" + describe(i) + ") = " + std::to_string(r) +
                   " outside {0.." + std::to_string(n) + "}");
    }
  }
}

/// The declared Table-1 state count must equal the inventory size exactly
/// (counts add across roles -- Section 2 of the paper).
inline void check_state_count(std::uint64_t declared, std::size_t inventory,
                              lint_context& ctx) {
  if (declared != inventory) {
    ctx.emit(finding_code::state_count_mismatch, severity::error,
             "declared state count " + std::to_string(declared) +
                 " != enumerated inventory size " + std::to_string(inventory));
  }
}

/// The batched engine's partition contract (pp/protocol.hpp): every key is
/// either an inert key below batch_key_count() or batch_volatile_key, and
/// two states carrying *distinct* inert keys must interact nully in both
/// initiator/responder orders.
template <batch_countable_protocol P>
void check_batch_partition(const P& p,
                           const std::vector<typename P::agent_state>& states,
                           lint_context& ctx,
                           const describe_fn& describe = index_describer()) {
  using state_t = typename P::agent_state;
  const std::uint32_t key_count = p.batch_key_count();
  const std::size_t k = states.size();
  std::vector<std::uint32_t> keys(k);
  for (std::size_t i = 0; i < k; ++i) {
    keys[i] = p.batch_key(states[i]);
    if (keys[i] != batch_volatile_key && keys[i] >= key_count) {
      ctx.emit(finding_code::batch_partition_violation, severity::error,
               "batch_key(" + describe(i) + ") = " + std::to_string(keys[i]) +
                   " >= batch_key_count() = " + std::to_string(key_count));
    }
  }
  rng_t rng(0xba7c4edULL);
  for (std::size_t a = 0; a < k; ++a) {
    if (keys[a] == batch_volatile_key) continue;
    for (std::size_t b = 0; b < k; ++b) {
      if (keys[b] == batch_volatile_key || keys[a] == keys[b]) continue;
      state_t x = states[a];
      state_t y = states[b];
      bool reported = false;
      try {
        reported = p.interact(x, y, rng);
      } catch (const std::exception&) {
        continue;  // reported by check_transition_table
      }
      if (reported || !(x == states[a] && y == states[b])) {
        ctx.emit(finding_code::batch_partition_violation, severity::error,
                 "states with distinct inert keys " +
                     std::to_string(keys[a]) + " and " +
                     std::to_string(keys[b]) + " (" + describe(a) + ", " +
                     describe(b) + ") interact non-nully");
      }
    }
  }
}

/// What the protocol's documentation claims about its terminal behavior.
struct terminal_claims {
  bool self_stabilizing = false;
  bool silent = false;
};

/// Machine-checks the silence and stabilization claims by running the
/// exhaustive configuration-space verifier (verify/reachability.hpp) and
/// comparing its verdict with the claims.  An incorrect terminal component
/// whose ranks collide is classified as L006 (ranking-not-permutation); any
/// other incorrect terminal component is L009.  Requires a closure-clean
/// deterministic protocol -- run check_transition_table first and skip this
/// when it reported closure escapes.
template <ranking_protocol P>
void check_terminal_components(
    const P& p, const std::vector<typename P::agent_state>& states,
    const terminal_claims& claims, lint_context& ctx) {
  if (!claims.self_stabilizing && !claims.silent) return;
  verification_result result;
  try {
    result = verify_self_stabilization(p, states);
  } catch (const std::exception& e) {
    ctx.emit(finding_code::closure_escape, severity::error,
             std::string("configuration-space verification aborted: ") +
                 e.what());
    return;
  }
  if (claims.self_stabilizing && !result.self_stabilizing) {
    std::ostringstream ranks;
    bool duplicated = false;
    if (result.counterexample.has_value()) {
      std::vector<std::uint32_t> seen(p.population_size() + 1, 0);
      ranks << "terminal configuration ranks {";
      for (std::size_t i = 0; i < result.counterexample->size(); ++i) {
        const std::uint32_t r = p.rank_of(states[(*result.counterexample)[i]]);
        ranks << (i > 0 ? "," : "") << r;
        if (r >= 1 && r <= p.population_size() && ++seen[r] > 1)
          duplicated = true;
      }
      ranks << "}";
    }
    if (duplicated) {
      ctx.emit(finding_code::ranking_not_permutation, severity::error,
               "a reachable terminal configuration holds duplicated ranks: " +
                   ranks.str());
    }
    ctx.emit(finding_code::not_self_stabilizing, severity::error,
             "an incorrect terminal component is reachable (" +
                 std::to_string(result.terminal_components) +
                 " terminal components over " +
                 std::to_string(result.configurations) + " configurations); " +
                 ranks.str());
  }
  if (claims.silent && !result.silent) {
    ctx.emit(finding_code::non_silent_terminal, severity::error,
             "protocol claims silence but a terminal component still has an "
             "enabled non-null transition (" +
                 std::to_string(result.terminal_components) +
                 " terminal components over " +
                 std::to_string(result.configurations) + " configurations)");
  }
}

/// Dead-state audit: a declared state that no transition ever *produces*
/// (beyond leaving it in place) and that no designated configuration seeds
/// can only enter a run through deserialization.  Such states are legal --
/// they keep role inventories rectangular -- so this reports notes, which
/// --strict does not promote.
template <class State>
void check_dead_states(const std::vector<State>& states,
                       const std::vector<std::vector<delta_entry>>& delta,
                       const std::vector<std::size_t>& seed_states,
                       lint_context& ctx,
                       const describe_fn& describe = index_describer()) {
  const std::size_t k = states.size();
  std::vector<bool> live(k, false);
  for (const std::size_t s : seed_states) {
    if (s < k) live[s] = true;
  }
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = 0; b < k; ++b) {
      const delta_entry& e = delta[a][b];
      if (!e.valid) continue;
      if (e.a != a) live[e.a] = true;
      if (e.b != b) live[e.b] = true;
    }
  }
  for (std::size_t i = 0; i < k; ++i) {
    if (!live[i]) {
      ctx.emit(finding_code::unreachable_state, severity::note,
               "no transition produces " + describe(i) +
                   " (reachable only through deserialization)");
    }
  }
}

/// Bounded dynamic sweep for protocols whose state space cannot be
/// enumerated: runs uniform random ordered pairs from `config`, validating
/// every touched state against the declared-space invariant `validate`
/// (which returns a violation message or nullopt).  Initial states are
/// checked with `initial_validate`, which may be weaker: adversarial
/// starting configurations live in the full declared space (e.g. ghost
/// rosters larger than n), while the transition function maintains tighter
/// invariants on every state it *produces*.  When `converged` never fires
/// within the budget and `converge_code` is set, that code is emitted.
/// Deterministically seeded, so the verdict is reproducible.
template <class P, class Validate, class InitialValidate, class Converged>
void check_sampled_run(const P& p,
                       std::vector<typename P::agent_state> config,
                       std::uint64_t max_interactions, std::uint64_t seed,
                       Validate&& validate, InitialValidate&& initial_validate,
                       Converged&& converged,
                       std::optional<finding_code> converge_code,
                       std::string_view label, lint_context& ctx) {
  const std::size_t n = config.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (const std::optional<std::string> msg = initial_validate(config[i])) {
      ctx.emit(finding_code::closure_escape, severity::error,
               std::string(label) + ": initial agent " + std::to_string(i) +
                   " outside the declared state space: " + *msg);
    }
  }
  rng_t rng(seed);
  for (std::uint64_t t = 0; t < max_interactions; ++t) {
    if (converged(config)) return;
    const std::size_t i = static_cast<std::size_t>(uniform_below(rng, n));
    std::size_t j = static_cast<std::size_t>(uniform_below(rng, n - 1));
    if (j >= i) ++j;
    try {
      p.interact(config[i], config[j], rng);
    } catch (const std::exception& e) {
      ctx.emit(finding_code::transition_throw, severity::error,
               std::string(label) + ": interact threw after " +
                   std::to_string(t) + " interactions: " + e.what());
      return;
    }
    for (const std::size_t idx : {i, j}) {
      if (const std::optional<std::string> msg = validate(config[idx])) {
        ctx.emit(finding_code::closure_escape, severity::error,
                 std::string(label) + ": agent " + std::to_string(idx) +
                     " left the declared state space after " +
                     std::to_string(t) + " interactions: " + *msg);
        return;
      }
    }
  }
  if (converge_code.has_value() && !converged(config)) {
    ctx.emit(*converge_code, severity::error,
             std::string(label) + ": did not converge within " +
                 std::to_string(max_interactions) + " interactions");
  }
}

}  // namespace ssr::lint
