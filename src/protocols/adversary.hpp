// Adversarial initial-configuration generators.
//
// Self-stabilization quantifies over *every* configuration in the state
// space, including those crafted by an adversary: ghost names, planted
// histories, missing leaders, exhausted counters.  The property tests and
// the fault-injection experiments draw starting configurations from the
// generators here.  Every generated configuration is a legal element of the
// protocol's state space (e.g. history trees are simply labelled and within
// depth H) -- arbitrary *states*, not arbitrary memory.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pp/rng.hpp"
#include "protocols/optimal_silent.hpp"
#include "protocols/silent_n_state.hpp"
#include "protocols/sublinear.hpp"

namespace ssr {

/// Uniformly random ranks (Protocol 1's whole state space).
std::vector<silent_n_state_ssr::agent_state> adversarial_configuration(
    const silent_n_state_ssr& protocol, rng_t& rng);

/// Named corruption scenarios for Optimal-Silent-SSR.
enum class optimal_silent_scenario {
  uniform_random,        // independent uniform fields per agent
  all_settled_rank_one,  // n copies of the leader state (max collisions)
  no_leader,             // valid-looking ranks 2..n+1 clipped into range, no rank 1
  all_unsettled_expired, // every agent Unsettled with errorcount 0
  all_dormant_followers, // mid-reset: everyone dormant, no leader candidate
  duplicated_ranks,      // two agents share each rank
  valid_ranking,         // already correct (stability check)
};

std::vector<optimal_silent_ssr::agent_state> adversarial_configuration(
    const optimal_silent_ssr& protocol, optimal_silent_scenario scenario,
    rng_t& rng);

std::string to_string(optimal_silent_scenario scenario);

/// Named corruption scenarios for Sublinear-Time-SSR.
enum class sublinear_scenario {
  uniform_random,     // random roles, names, rosters, trees
  all_same_name,      // maximal collision: every agent named identically
  single_collision,   // exactly two agents share a name; no other error
                      // signal exists, so stabilization is gated on
                      // Detect-Name-Collision finding the pair -- the
                      // Theta(H n^{1/(H+1)}) worst case of Section 5.2
  ghost_names,        // rosters padded with names no agent holds
  missing_own_name,   // rosters that omit the holder's name (deadlock trap)
  planted_histories,  // trees claiming interactions that never happened
  mid_reset,          // a mix of propagating / dormant / computing agents
  valid_ranking,      // unique names, full rosters, correct ranks
};

std::vector<sublinear_time_ssr::agent_state> adversarial_configuration(
    const sublinear_time_ssr& protocol, sublinear_scenario scenario,
    rng_t& rng);

std::string to_string(sublinear_scenario scenario);

}  // namespace ssr
