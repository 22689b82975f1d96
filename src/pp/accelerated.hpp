// Generic exact accelerated simulation for protocols with small state
// inventories.
//
// Agents are anonymous, so a configuration is fully described by the vector
// of *counts* over the k distinct states.  When most interactions are null
// (typical near silence), stepping agent-by-agent wastes almost all work;
// instead we sample the embedded jump chain exactly:
//
//   * resolve the deterministic transition table delta(a, b) once
//     (build_transition_table, pp/transition_table.hpp, which enforces
//     closure);
//   * maintain counts c_s and the total weight A of *active* ordered state
//     pairs (those with a non-null transition), where the pair (a, b) has
//     weight c_a * c_b for a != b and c_a * (c_a - 1) for a == b;
//   * the number of null interactions before the next non-null one is
//     geometric with p = A / (n (n-1)) -- skipped in O(1);
//   * the active pair itself is sampled with probability proportional to
//     its weight, and the counts are updated.
//
// This generalizes accelerated_silent_n_state (which remains as the
// specialized fast path for Protocol 1) to any deterministic protocol --
// the baseline, initialized protocols, loose stabilization with small T,
// Optimal-Silent-SSR with small tuning constants.  Exactness is checked
// against direct simulation by Kolmogorov-Smirnov tests
// (tests/accelerated_test.cpp).
//
// Cost per non-null transition is O(active pairs) for the weighted pick
// (active-pair bookkeeping is O(k) per update); the speedup over direct
// simulation is the null fraction, which approaches 1 near stabilization.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/timeline.hpp"
#include "pp/assert.hpp"
#include "pp/protocol.hpp"
#include "pp/random.hpp"
#include "pp/rng.hpp"
#include "pp/transition_table.hpp"

namespace ssr {

template <ranking_protocol P>
class accelerated_simulation {
 public:
  using agent_state = typename P::agent_state;

  /// `all_states` must contain every state reachable from `initial` (the
  /// protocols' all_states() inventories qualify); transitions must be
  /// deterministic.
  accelerated_simulation(P protocol,
                         const std::vector<agent_state>& all_states,
                         const std::vector<agent_state>& initial,
                         std::uint64_t seed)
      : protocol_(std::move(protocol)),
        states_(all_states),
        k_(all_states.size()),
        n_(protocol_.population_size()),
        rng_(seed),
        delta_(build_transition_table(protocol_, states_)) {
    SSR_REQUIRE(initial.size() == n_);
    SSR_REQUIRE(k_ >= 1);

    count_.assign(k_, 0);
    for (const auto& s : initial) ++count_[inventory_index(states_, s)];
    rebuild_active_weight();

    // Rank histogram for O(1) correctness tracking.
    rank_of_state_.resize(k_);
    for (std::size_t s = 0; s < k_; ++s)
      rank_of_state_[s] = protocol_.rank_of(states_[s]);
    rank_count_.assign(n_ + 1, 0);
    for (std::size_t s = 0; s < k_; ++s) {
      const std::uint32_t r = clamp_rank(rank_of_state_[s]);
      if (r > 0) rank_count_[r] += count_[s];
    }
    singleton_ranks_ = 0;
    for (std::uint32_t r = 1; r <= n_; ++r)
      singleton_ranks_ += rank_count_[r] == 1 ? 1 : 0;
  }

  std::uint64_t interactions() const { return interactions_; }
  double parallel_time() const {
    return static_cast<double>(interactions_) / n_;
  }
  bool correct() const { return singleton_ranks_ == n_; }
  /// Silent iff no active pair remains.
  bool silent() const { return active_weight_ == 0; }
  std::uint64_t count_of(std::size_t state_index) const {
    return count_[state_index];
  }

  /// Executes the next non-null transition (jumping the geometric run of
  /// null interactions).  Precondition: !silent().
  void step() {
    SSR_REQUIRE(active_weight_ > 0);
    const double total =
        static_cast<double>(std::uint64_t{n_} * (n_ - 1));
    interactions_ +=
        geometric_failures(rng_, static_cast<double>(active_weight_) / total) +
        1;

    // Weighted pick over active ordered state pairs.
    std::uint64_t u = uniform_below(rng_, active_weight_);
    for (std::size_t a = 0; a < k_; ++a) {
      if (count_[a] == 0) continue;
      for (std::size_t b = 0; b < k_; ++b) {
        if (delta_.is_null(a, b)) continue;
        const std::uint64_t w =
            a == b ? count_[a] * (count_[a] - 1) : count_[a] * count_[b];
        if (u >= w) {
          u -= w;
          continue;
        }
        apply(a, b);
        return;
      }
    }
    SSR_ASSERT(false);  // u < active_weight_ guarantees a pick
  }

  /// Runs until correct (and, for silent protocols, stable); returns the
  /// parallel time of the last entry into correctness.  Stops early when
  /// the configuration is both correct and silent; otherwise runs until
  /// `max_interactions`.
  bool run_until_correct(std::uint64_t max_interactions) {
    if (profiler_ == nullptr) {  // detached cost: one branch per call
      return run_until_correct_loop(max_interactions);
    }
    obs::timeline_scope section(profiler_, "accelerated.run");
    const std::uint64_t before = interactions_;
    const bool result = run_until_correct_loop(max_interactions);
    profiler_->add_units(interactions_ - before);
    return result;
  }

  /// Attaches (or with nullptr detaches) a section profiler;
  /// run_until_correct records an "accelerated.run" section carrying the
  /// simulated interactions (mostly skipped nulls) as units.
  void attach_profiler(obs::timeline_profiler* profiler) {
    profiler_ = profiler;
  }

 private:
  bool run_until_correct_loop(std::uint64_t max_interactions) {
    while (interactions_ < max_interactions) {
      if (correct() && silent()) return true;
      if (silent()) return false;  // silent but wrong: stuck forever
      step();
    }
    return correct();
  }

  std::uint32_t clamp_rank(std::uint32_t r) const { return r <= n_ ? r : 0; }

  void rebuild_active_weight() {
    active_weight_ = 0;
    for (std::size_t a = 0; a < k_; ++a) {
      if (count_[a] == 0) continue;
      for (std::size_t b = 0; b < k_; ++b) {
        if (delta_.is_null(a, b) || count_[b] == 0) continue;
        active_weight_ +=
            a == b ? count_[a] * (count_[a] - 1) : count_[a] * count_[b];
      }
    }
  }

  void bump_rank(std::size_t state, std::int64_t delta) {
    const std::uint32_t r = clamp_rank(rank_of_state_[state]);
    if (r == 0) return;
    const std::uint64_t before = rank_count_[r];
    rank_count_[r] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(before) + delta);
    if (before == 1) --singleton_ranks_;
    if (rank_count_[r] == 1) ++singleton_ranks_;
  }

  void apply(std::size_t a, std::size_t b) {
    const auto [a2, b2] = delta_(a, b);
    // Count updates; active weight is rebuilt lazily but exactly.  Only
    // four states change, so an incremental update would be O(k); the
    // rebuild is O(k^2), acceptable for the small-k regime this simulator
    // targets (k up to a few hundred).
    --count_[a];
    --count_[b];
    ++count_[a2];
    ++count_[b2];
    bump_rank(a, -1);
    bump_rank(b, -1);
    bump_rank(a2, +1);
    bump_rank(b2, +1);
    rebuild_active_weight();
  }

  P protocol_;
  std::vector<agent_state> states_;
  std::size_t k_;
  std::uint32_t n_;
  rng_t rng_;

  transition_table delta_;
  std::vector<std::uint64_t> count_;
  std::uint64_t active_weight_ = 0;
  std::uint64_t interactions_ = 0;

  std::vector<std::uint32_t> rank_of_state_;
  std::vector<std::uint64_t> rank_count_;
  std::uint32_t singleton_ranks_ = 0;
  obs::timeline_profiler* profiler_ = nullptr;
};

}  // namespace ssr
