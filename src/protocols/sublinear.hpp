// Protocols 5+6: Sublinear-Time-SSR (Section 5), the H-parameterized family
// of non-silent self-stabilizing ranking protocols.
//
// Every agent holds a random name of 3 log2 n bits; the set of all names is
// propagated by epidemic in the roster field, and an agent whose roster has
// size n outputs as rank the lexicographic order of its own name in the
// roster.  Errors are handled by Propagate-Reset:
//   * ghost names (roster larger than the population) are caught when a
//     merged roster would exceed n names (line 2);
//   * name collisions are caught by Detect-Name-Collision (Protocol 7)
//     through depth-H history trees -- see history_tree.hpp;
//   * agents regenerate names bit by bit during the dormant phase of the
//     reset (lines 14-15) and restart with roster = {name} (Protocol 6).
//
// Parameter H trades time for states (Theorem 5.1): expected stabilization
// takes O(H * n^{1/(H+1)}) time for constant H and O(log n) for
// H = Theta(log n), while states grow as exp(O(n^H) log n).  H = 0 (a
// degenerate case the paper describes in prose) detects collisions only on
// direct meetings, giving a silent Theta(n)-time variant.
//
// Implementation completions beyond the paper's pseudocode (DESIGN.md):
//   * two interacting agents with equal names report a collision directly
//     (genuine by definition; Protocol 7's trees cannot see it because both
//     agents prune nodes labelled with their own name);
//   * a Collecting agent whose roster does not contain its own name is
//     corrupt (a clean Reset establishes roster = {name} and unions preserve
//     it) and triggers a reset; without this check an adversarial
//     configuration deadlocks: rosters only grow by unions, so a name
//     missing from every roster would leave |roster| < n forever with no
//     error ever detected.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "pp/protocol.hpp"
#include "pp/rng.hpp"
#include "protocols/history_tree.hpp"
#include "protocols/names.hpp"
#include "protocols/propagate_reset.hpp"
#include "protocols/roster.hpp"

namespace ssr {

class sublinear_time_ssr {
 public:
  enum class role_t : std::uint8_t { collecting, resetting };

  struct tuning {
    std::uint32_t h = 1;          // history depth H (0 = direct detection)
    std::uint32_t t_h = 1;        // edge timer T_H = Theta(tau_{H+1})
    std::uint32_t s_max = 1;      // sync values {1..S_max}, Theta(n^2)
    std::uint32_t r_max = 1;      // Propagate-Reset countdown
    std::uint32_t d_max = 1;      // dormant delay, Theta(log n)
    std::uint32_t name_bits = 1;  // 3 log2 n
    // Simulation-only memory bound: prune subtrees this many owner
    // interactions after their edge expires (< 0: never, as in the paper).
    std::int64_t prune_retention = 0;

    /// Defaults for population size n and depth H; see DESIGN.md deviation
    /// #4 for the constants.  T_H = 6 (H+1) n^{1/(H+1)} capped at 6 ln n
    /// once H reaches log2 n, matching the paper's two regimes.
    static tuning defaults(std::uint32_t n, std::uint32_t h);
  };

  struct agent_state {
    role_t role = role_t::collecting;
    name_t name;
    // Collecting fields.
    std::uint32_t rank = 0;        // write-only output; 0 = not yet set
    roster_t roster;               // sorted, unique; always <= n entries
    history_tree tree;
    // Resetting fields.
    reset_fields reset;
  };

  sublinear_time_ssr(std::uint32_t n, const tuning& params);
  /// Convenience: defaults for depth H.
  sublinear_time_ssr(std::uint32_t n, std::uint32_t h);

  std::uint32_t population_size() const { return n_; }
  const tuning& params() const { return params_; }

  bool interact(agent_state& a, agent_state& b, rng_t& rng) const;

  std::uint32_t rank_of(const agent_state& s) const {
    return s.role == role_t::collecting ? s.rank : 0;
  }

  /// Phase instrumentation (obs/trace.hpp).  Collecting splits on whether
  /// the roster is complete (the agent outputs a rank) -- the epidemic's
  /// progress measure -- and Resetting on propagating vs dormant
  /// (name-regeneration) stages.
  std::uint32_t obs_phase_count() const { return 4; }
  std::uint32_t obs_phase(const agent_state& s) const {
    if (s.role == role_t::collecting) {
      return s.roster.size() >= n_ ? 1 : 0;
    }
    return s.reset.resetcount > 0 ? 2 : 3;
  }
  static std::string_view obs_phase_name(std::uint32_t phase) {
    constexpr std::string_view names[] = {"collecting", "roster_complete",
                                          "resetting_propagating",
                                          "resetting_dormant"};
    return phase < 4 ? names[phase] : "unknown";
  }
  static bool obs_phase_is_reset(std::uint32_t phase) {
    return phase == 2 || phase == 3;
  }

  /// A clean post-reset start: every agent Collecting with a fresh random
  /// full-length name and roster = {name} (convenience for experiments; the
  /// protocol is self-stabilizing).
  std::vector<agent_state> initial_configuration(rng_t& rng) const;

  /// Protocol 7, both directions, plus the direct equal-name check.  Public
  /// for tests; does not modify the agents.
  bool name_collision_detected(const agent_state& a,
                               const agent_state& b) const;

 private:
  struct hooks;

  void trigger_pair(agent_state& a, agent_state& b) const;

  std::uint32_t n_;
  tuning params_;
};

}  // namespace ssr
