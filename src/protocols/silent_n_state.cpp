#include "protocols/silent_n_state.hpp"

#include "pp/assert.hpp"
#include "pp/random.hpp"

namespace ssr {

silent_n_state_ssr::silent_n_state_ssr(std::uint32_t n) : n_(n) {
  SSR_REQUIRE(n >= 2);
}

std::vector<silent_n_state_ssr::agent_state>
silent_n_state_ssr::lower_bound_configuration() const {
  // Two agents at rank 0, none at rank n-1, one everywhere else.
  std::vector<agent_state> config(n_);
  config[0].rank = 0;
  config[1].rank = 0;
  for (std::uint32_t i = 2; i < n_; ++i) config[i].rank = i - 1;
  return config;
}

accelerated_silent_n_state::accelerated_silent_n_state(
    std::uint32_t n, const std::vector<std::uint32_t>& ranks,
    std::uint64_t seed)
    : n_(n), count_(n, 0), rng_(seed) {
  SSR_REQUIRE(n >= 2);
  SSR_REQUIRE(ranks.size() == n);
  for (const std::uint32_t r : ranks) {
    SSR_REQUIRE(r < n);
    ++count_[r];
  }
  for (const std::uint64_t c : count_) {
    active_pairs_ += c * (c - (c > 0 ? 1 : 0));
    if (c > 1) collisions_ += c - 1;
  }
}

void accelerated_silent_n_state::step() {
  SSR_ASSERT(active_pairs_ > 0);
  const auto total_pairs =
      static_cast<double>(std::uint64_t{n_} * (n_ - 1));
  const double p = static_cast<double>(active_pairs_) / total_pairs;

  // Jump over the geometric run of null interactions, then perform the
  // non-null one.  Conditioned on being non-null, the interacting pair is
  // uniform over active ordered pairs, which (by symmetry within a rank)
  // reduces to choosing the rank r with probability c_r(c_r-1)/A.
  const std::uint64_t nulls = geometric_failures(rng_, p);
  interactions_ += nulls + 1;
  if (counters_ != nullptr) {
    counters_->certain_nulls_skipped += nulls;
    ++counters_->interactions_executed;
    ++counters_->transitions_changed;
    ++counters_->geometric_draws;
  }

  std::uint64_t u = uniform_below(rng_, active_pairs_);
  std::uint32_t r = 0;
  for (;; ++r) {
    SSR_ASSERT(r < n_);
    const std::uint64_t c = count_[r];
    const std::uint64_t w = c > 1 ? c * (c - 1) : 0;
    if (u < w) break;
    u -= w;
  }

  const std::uint32_t s = r + 1 == n_ ? 0 : r + 1;
  // Move one agent from rank r to rank s, maintaining the active-pair count
  // A = sum c(c-1) and the collision count sum max(c-1, 0).
  const std::uint64_t cr = count_[r];
  const std::uint64_t cs = count_[s];
  active_pairs_ -= cr * (cr - 1);
  active_pairs_ -= cs > 0 ? cs * (cs - 1) : 0;
  if (cr > 1) --collisions_;
  if (cs >= 1) ++collisions_;
  count_[r] = cr - 1;
  count_[s] = cs + 1;
  active_pairs_ += (cr - 1) * (cr - 2);
  active_pairs_ += (cs + 1) * cs;
}

double accelerated_silent_n_state::run_to_stabilization() {
  while (!stable()) step();
  return parallel_time();
}

bool accelerated_silent_n_state::run_until_stable(
    std::uint64_t max_interactions, const cancel_token* cancel) {
  for (std::uint64_t steps = 0; !stable() && interactions_ < max_interactions;
       ++steps) {
    if (cancel != nullptr && steps % 1024 == 0) cancel->throw_if_cancelled();
    step();
  }
  return stable() && interactions_ < max_interactions;
}

}  // namespace ssr
