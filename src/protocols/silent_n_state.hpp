// Protocol 1: Silent-n-state-SSR, the baseline self-stabilizing ranking
// protocol of Cai, Izumi, and Wada [22].
//
//   Fields: rank in {0, ..., n-1}
//   if a.rank = b.rank then b.rank <- (b.rank + 1) mod n
//
// It uses exactly n states (optimal, Theorem 2.1) and stabilizes in
// Theta(n^2) expected parallel time -- the paper includes the time analysis
// because [22] predates the uniform-random-scheduler time measure.  The
// protocol is silent: in the unique stable configuration every rank is held
// exactly once and every transition is null.
//
// Correctness intuition (the paper's "barrier rank" argument): some rank
// value r with a single occupant and no occupant at r-1 acts as a barrier
// that collided agents queue up behind; each bottleneck step requires two
// specific agents to meet (expected Theta(n) time), and up to n-1 such steps
// may be needed, giving Theta(n^2).
//
// The ranks here are {0..n-1} as in [22]; rank_of maps them to the paper's
// formal {1..n} by adding one (footnote 8 of the paper notes the
// equivalence).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/engine_counters.hpp"
#include "pp/cancellation.hpp"
#include "pp/protocol.hpp"
#include "pp/rng.hpp"

namespace ssr {

class silent_n_state_ssr {
 public:
  struct agent_state {
    std::uint32_t rank = 0;  // in {0, ..., n-1}

    friend bool operator==(const agent_state&, const agent_state&) = default;
  };

  explicit silent_n_state_ssr(std::uint32_t n);

  std::uint32_t population_size() const { return n_; }

  /// The single transition of Protocol 1.  Asymmetric: only the responder
  /// moves.
  bool interact(agent_state& a, agent_state& b, rng_t&) const {
    if (a.rank != b.rank) return false;
    b.rank = b.rank + 1 == n_ ? 0 : b.rank + 1;
    return true;
  }

  /// Output map to the formal rank space {1..n}.
  std::uint32_t rank_of(const agent_state& s) const { return s.rank + 1; }

  /// Batched-engine partition (pp/engine.hpp): the rank is the inert key --
  /// the single transition fires only on equal ranks, so agents holding
  /// distinct in-range ranks always interact nully.  Out-of-range ranks
  /// (constructible only through deserialization) are conservatively
  /// volatile.
  std::uint32_t batch_key_count() const { return n_; }
  std::uint32_t batch_key(const agent_state& s) const {
    return s.rank < n_ ? s.rank : batch_volatile_key;
  }

  /// Exactly n states (Table 1).
  static std::uint64_t state_count(std::uint32_t n) { return n; }

  /// The full state inventory, for exhaustive verification
  /// (verify/reachability.hpp).
  std::vector<agent_state> all_states() const {
    std::vector<agent_state> states(n_);
    for (std::uint32_t r = 0; r < n_; ++r) states[r].rank = r;
    return states;
  }

  /// The adversarial configuration of the paper's Omega(n^2) lower-bound
  /// argument: two agents at rank 0, no agent at rank n-1, one agent at
  /// every other rank; stabilizing requires n-1 consecutive bottleneck
  /// transitions.
  std::vector<agent_state> lower_bound_configuration() const;

 private:
  std::uint32_t n_;
};

/// Exact accelerated execution of Silent-n-state-SSR.
///
/// Direct simulation costs Theta(n^3) interactions for a Theta(n^2)-time
/// protocol.  Because the only non-null interactions are between agents of
/// equal rank, the embedded jump chain can be sampled exactly: the number of
/// null interactions before the next non-null one is geometric in
/// p = A / (n(n-1)) where A = sum_r c_r (c_r - 1) counts active ordered
/// pairs, and the active pair itself is uniform over active pairs.  Agents
/// are anonymous, so rank *counts* c_r are a sufficient state description.
/// Distributional equivalence with the direct simulator is covered by
/// tests/silent_n_state_test.cpp.
class accelerated_silent_n_state {
 public:
  /// Starts from the configuration described by per-agent ranks.
  accelerated_silent_n_state(std::uint32_t n,
                             const std::vector<std::uint32_t>& ranks,
                             std::uint64_t seed);

  /// True iff every rank is held exactly once (the silent configuration).
  bool stable() const { return collisions_ == 0; }

  /// Executes non-null transitions until stable; returns the parallel time
  /// at stabilization (counting the skipped null interactions).
  double run_to_stabilization();

  /// The same run, bounded: executes non-null transitions until stable or
  /// until the count reaches `max_interactions`, polling `cancel` every
  /// 1024 transitions (a fired token throws cancelled_error).  A geometric
  /// skip is never cut, so the last transition may land past the cap and
  /// the trajectory is run_to_stabilization()'s.  Returns true iff the
  /// configuration became stable before interaction `max_interactions`.
  bool run_until_stable(std::uint64_t max_interactions,
                        const cancel_token* cancel = nullptr);

  /// Attaches (or with nullptr detaches) an event-counter sink: every
  /// transition is one executed, state-changing interaction and one
  /// geometric draw, and the nulls it jumps over are skipped certain nulls.
  void attach_counters(obs::engine_counters* counters) {
    counters_ = counters;
  }

  std::uint64_t interactions() const { return interactions_; }
  double parallel_time() const {
    return static_cast<double>(interactions_) / static_cast<double>(n_);
  }

 private:
  void step();

  std::uint32_t n_;
  std::vector<std::uint64_t> count_;  // agents per rank
  // sum_r c_r (c_r - 1): number of active ordered pairs.
  std::uint64_t active_pairs_ = 0;
  // number of ranks with count != 1 is not needed; collisions_ tracks
  // sum_r max(c_r - 1, 0), which is 0 exactly in the silent configuration.
  std::uint64_t collisions_ = 0;
  std::uint64_t interactions_ = 0;
  rng_t rng_;
  obs::engine_counters* counters_ = nullptr;
};

}  // namespace ssr
