// Interchangeable simulation engines for the uniform scheduler.
//
// Every engine executes the same stochastic process -- i.i.d. uniform
// ordered pairs of distinct agents, transition applied per pair -- and
// differs only in how much work each simulated interaction costs:
//
//   direct_engine<P>    one scheduler draw + one transition call per
//                       interaction (the reference semantics).  Its second
//                       parameter is the scheduler: uniform_pairs by
//                       default; an interaction_graph (pp/graph.hpp)
//                       instead draws only the pairs a topology allows,
//                       the one engine that runs off the complete graph.
//   batched_engine<P>   for batch_countable_protocol P: a count-based
//                       configuration index (per-key agent buckets + a
//                       Fenwick tree of same-key pair weights) that skips
//                       whole runs of certainly-null interactions with one
//                       geometric draw and samples the next maybe-active
//                       pair from the counts in O(log n).
//                       For all other protocols: collision-aware block
//                       sampling via batch_scheduler, applied in order.
//
// Equivalence: the batched engine simulates *exactly* the same distribution
// over trajectories as the direct engine, not an approximation.  Skipped
// interactions are pairs with distinct inert keys, which the
// batch_countable_protocol contract guarantees are null; the run length of
// such nulls under the uniform scheduler is geometric with success
// probability W / n(n-1) (W = weight of maybe-active ordered pairs), and
// the maybe-active pair terminating the run is uniform over the
// maybe-active set -- both sampled exactly.  A geometric skip that runs
// past an interaction budget is cut there and its remainder kept for the
// next run() call, so slicing a run into budgets never changes the
// trajectory.  The distribution-equivalence suite
// (tests/engine_equivalence_test.cpp) checks this end to end with
// two-sample KS tests.
//
// Engines run under caller-supplied hooks:
//
//   engine.run(budget, pre, post)
//
// calls pre(pair) immediately before and post(pair, changed) immediately
// after every *executed* interaction.  Interactions elided by the geometric
// skip (certainly null by contract) are counted but never surfaced -- they
// cannot change any state, so observers keyed on state changes see an
// identical stream.  post
// returns true to stop; run returns true iff a post stopped it, false when
// the interaction budget was exhausted.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/engine_counters.hpp"
#include "obs/timeline.hpp"
#include "pp/assert.hpp"
#include "pp/batch_scheduler.hpp"
#include "pp/protocol.hpp"
#include "pp/random.hpp"
#include "pp/rng.hpp"
#include "pp/scheduler.hpp"

namespace ssr {

/// Runtime engine selector, shared by run_trials, the bench binaries
/// (--engine=direct|batched) and ssr_cli.  No parser produces `sharded`,
/// and with_engine (pp/convergence.hpp) throws on it.
enum class engine_kind {
  direct,
  batched,
  sharded,  // no engine; goes with perf_layers' switch (ROADMAP item 6)
};

inline constexpr std::string_view to_string(engine_kind kind) {
  return kind == engine_kind::batched ? "batched" : "direct";
}

inline std::optional<engine_kind> parse_engine(std::string_view name) {
  if (name == "direct") return engine_kind::direct;
  if (name == "batched") return engine_kind::batched;
  return std::nullopt;
}

/// The engine a request selects.  Implicitly convertible from engine_kind
/// so call sites (and designated initializers like
/// {.engine = engine_kind::batched}) spell only the kind.
/// Becomes engine_kind once perf_layers stops naming it (ROADMAP item 6).
struct engine_spec {
  engine_kind kind = engine_kind::direct;

  constexpr engine_spec() = default;
  constexpr engine_spec(engine_kind k) : kind(k) {}  // NOLINT

  friend bool operator==(const engine_spec&, const engine_spec&) = default;
};

/// The contract shared by all engines; measurement harnesses
/// (pp/convergence.hpp) are templated over it.
template <class E>
concept simulation_engine =
    requires(E e, const E ce, std::uint64_t budget) {
      typename E::protocol_type;
      typename E::agent_state;
      { ce.population_size() } -> std::convertible_to<std::uint32_t>;
      { ce.interactions() } -> std::convertible_to<std::uint64_t>;
      { ce.parallel_time() } -> std::convertible_to<double>;
      // True only when the engine can *prove* no future interaction will
      // change any state (sufficient, not necessary, for silence).
      { ce.quiescent() } -> std::convertible_to<bool>;
      {
        e.run(budget, [](const agent_pair&) {},
              [](const agent_pair&, bool) { return false; })
      } -> std::same_as<bool>;
    };

/// The reference engine: per-interaction stepping.  Each interaction draws
/// one pair from the scheduler and applies the transition with the same
/// RNG.  The default scheduler, uniform_pairs, is sample_pair over the
/// population: direct_engine<P> runs the historical loop, whose RNG stream
/// every seed-pinned result assumes (tests/determinism_test.cpp pins it to
/// a sample_pair + interact reference loop).  Any other scheduler, such as
/// an interaction_graph (pp/graph.hpp), has size() and sample(rng_t&).
template <population_protocol P, class Scheduler = uniform_pairs>
class direct_engine {
  static constexpr bool uniform = std::same_as<Scheduler, uniform_pairs>;

 public:
  using protocol_type = P;
  using agent_state = typename P::agent_state;

  /// Runs under the paper's scheduler: uniform ordered pairs.
  direct_engine(P protocol, std::vector<agent_state> initial,
                std::uint64_t seed)
    requires uniform
      : protocol_(std::move(protocol)),
        agents_(std::move(initial)),
        rng_(seed) {
    SSR_REQUIRE(agents_.size() == protocol_.population_size());
    SSR_REQUIRE(agents_.size() >= 2);
  }

  /// Runs under `scheduler`, which must cover the whole population.
  direct_engine(P protocol, Scheduler scheduler,
                std::vector<agent_state> initial, std::uint64_t seed)
    requires(!uniform)
      : protocol_(std::move(protocol)),
        agents_(std::move(initial)),
        rng_(seed),
        scheduler_(std::move(scheduler)) {
    SSR_REQUIRE(agents_.size() == protocol_.population_size());
    SSR_REQUIRE(scheduler_.size() == protocol_.population_size());
  }

  template <class Pre, class Post>
  bool run(std::uint64_t max_interactions, Pre&& pre, Post&& post) {
    if (profiler_ == nullptr) {  // detached cost: this one branch per run()
      return run_loop(max_interactions, std::forward<Pre>(pre),
                      std::forward<Post>(post));
    }
    obs::timeline_scope section(profiler_, "engine.run");
    const std::uint64_t before = interactions_;
    const bool stopped = run_loop(max_interactions, std::forward<Pre>(pre),
                                  std::forward<Post>(post));
    profiler_->add_units(interactions_ - before);
    return stopped;
  }

  /// Attaches (or with nullptr detaches) an event-counter sink; see
  /// obs/engine_counters.hpp.  Counters accumulate across run() calls.
  void attach_counters(obs::engine_counters* counters) {
    counters_ = counters;
  }

  /// Attaches (or with nullptr detaches) a section profiler; every run()
  /// call becomes an "engine.run" section carrying the executed
  /// interactions as units.  See obs/timeline.hpp.
  void attach_profiler(obs::timeline_profiler* profiler) {
    profiler_ = profiler;
  }

  std::uint32_t population_size() const {
    return protocol_.population_size();
  }
  std::uint64_t interactions() const { return interactions_; }
  double parallel_time() const {
    return static_cast<double>(interactions_) / population_size();
  }
  bool quiescent() const { return false; }  // no structural knowledge

  std::span<const agent_state> agents() const { return agents_; }
  /// Mutable access supports fault injection (transient-fault experiments
  /// corrupt states mid-run) -- this models the adversary, not the protocol.
  std::span<agent_state> mutable_agents() { return agents_; }
  const P& protocol() const { return protocol_; }
  const Scheduler& scheduler() const { return scheduler_; }
  rng_t& rng() { return rng_; }

 private:
  template <class Pre, class Post>
  bool run_loop(std::uint64_t max_interactions, Pre&& pre, Post&& post) {
    [[maybe_unused]] const std::uint32_t n = population_size();
    while (interactions_ < max_interactions) {
      agent_pair pair;
      if constexpr (uniform) {
        pair = sample_pair(rng_, n);
      } else {
        pair = scheduler_.sample(rng_);
      }
      pre(pair);
      const bool changed = protocol_.interact(agents_[pair.initiator],
                                              agents_[pair.responder], rng_);
      ++interactions_;
      if (counters_) {
        ++counters_->interactions_executed;
        counters_->transitions_changed += changed;
      }
      if (post(pair, changed)) return true;
    }
    return false;
  }

  P protocol_;
  std::vector<agent_state> agents_;
  rng_t rng_;
  std::uint64_t interactions_ = 0;
  obs::engine_counters* counters_ = nullptr;
  obs::timeline_profiler* profiler_ = nullptr;
  [[no_unique_address]] Scheduler scheduler_;
};

/// True iff no pair the engine's scheduler can draw has a non-null
/// transition, i.e. the configuration is silent (Section 2, "Silent
/// protocols").  On a graph only adjacent pairs count, so a configuration
/// may be silent on a sparse graph while the same multiset of states is not
/// on the complete graph -- the livelocks tests/topology_test.cpp
/// demonstrates.  O(pairs); intended for tests and small n.  Transitions
/// are probed on copies, so the configuration is not disturbed.
template <population_protocol P, class Scheduler>
bool is_silent_configuration(const direct_engine<P, Scheduler>& engine) {
  P probe = engine.protocol();
  rng_t probe_rng(0xdeadbeef);
  const auto agents = engine.agents();
  const auto changes = [&](std::uint32_t i, std::uint32_t j) {
    typename P::agent_state a = agents[i];
    typename P::agent_state b = agents[j];
    return probe.interact(a, b, probe_rng);
  };
  if constexpr (std::same_as<Scheduler, uniform_pairs>) {
    const std::uint32_t n = engine.population_size();
    for (std::uint32_t i = 0; i < n; ++i)
      for (std::uint32_t j = 0; j < n; ++j)
        if (i != j && changes(i, j)) return false;
  } else {
    for (const auto& [u, v] : engine.scheduler().edges())
      if (changes(u, v) || changes(v, u)) return false;
  }
  return true;
}

namespace detail {

/// Fenwick (binary indexed) tree over per-key ordered-pair weights
/// w_k = s_k (s_k - 1).  add() is O(log K); find() locates the key whose
/// weight interval contains a uniform draw, with the in-key residual, in
/// O(log K) -- the residual is reused to pick the concrete agents so the
/// draw costs one uniform variate total.
class pair_weight_tree {
 public:
  explicit pair_weight_tree(std::size_t keys) : tree_(keys + 1, 0) {
    mask_ = 1;
    while (mask_ * 2 <= keys) mask_ *= 2;
  }

  /// Adds a (possibly negative, via two's-complement wrap) delta to key i.
  void add(std::size_t i, std::uint64_t delta) {
    total_ += delta;
    for (++i; i < tree_.size(); i += i & (~i + 1)) tree_[i] += delta;
  }

  std::uint64_t total() const { return total_; }

  /// Precondition: u < total().  Returns (key, residual) with
  /// residual < weight(key).
  std::pair<std::size_t, std::uint64_t> find(std::uint64_t u) const {
    std::size_t pos = 0;
    for (std::size_t step = mask_; step > 0; step >>= 1) {
      const std::size_t next = pos + step;
      if (next < tree_.size() && tree_[next] <= u) {
        u -= tree_[next];
        pos = next;
      }
    }
    return {pos, u};  // pos is the 0-based key index
  }

 private:
  std::vector<std::uint64_t> tree_;
  std::size_t mask_ = 1;
  std::uint64_t total_ = 0;
};

}  // namespace detail

template <population_protocol P,
          bool Countable = batch_countable_protocol<P>>
class batched_engine;

/// Count-based batched engine for batch-countable protocols.
///
/// Configuration index: every agent sits in the bucket of its batch key
/// (inert keys 0..K-1, plus one bucket for volatile states).  With
/// s_k = |bucket k| and V volatile agents out of n, the maybe-active
/// ordered pairs are exactly
///
///   A: same inert key,          weight Q = sum_k s_k (s_k - 1) (Fenwick)
///   B: volatile initiator,      weight V (n - 1)
///   C: inert x volatile,        weight (n - V) V
///
/// and every remaining pair (distinct inert keys) is certainly null by the
/// batch_countable_protocol contract.  Each engine step draws the
/// geometric run of certain nulls in O(1), then one maybe-active pair:
/// category A via Fenwick descent + in-bucket residual, B via direct
/// indexing, C by rejection over initiators (terminates fast: the skip
/// path only runs when W < n(n-1)/2, which forces V < n/2).  When the
/// maybe-active weight is at least half of all pairs, skipping cannot win
/// and the engine steps like the direct one (drawing uniform pairs),
/// which keeps adversarial all-volatile configurations from paying index
/// overhead per interaction.
///
/// The maybe-active pair is probed with the real transition function, so
/// "maybe-active but actually null" pairs (e.g. two Settled agents sharing
/// an out-of-range rank) behave exactly as under direct simulation.
template <population_protocol P>
class batched_engine<P, true> {
 public:
  using protocol_type = P;
  using agent_state = typename P::agent_state;

  batched_engine(P protocol, std::vector<agent_state> initial,
                 std::uint64_t seed)
      : protocol_(std::move(protocol)),
        agents_(std::move(initial)),
        rng_(seed),
        n_(protocol_.population_size()),
        inert_keys_(protocol_.batch_key_count()),
        weight_(protocol_.batch_key_count()) {
    SSR_REQUIRE(agents_.size() == n_);
    SSR_REQUIRE(n_ >= 2);
    buckets_.resize(std::size_t{inert_keys_} + 1);
    bucket_of_.resize(n_);
    pos_.resize(n_);
    for (std::uint32_t a = 0; a < n_; ++a) {
      const std::uint32_t k = bucket_index(agents_[a]);
      bucket_of_[a] = k;
      pos_[a] = static_cast<std::uint32_t>(buckets_[k].size());
      buckets_[k].push_back(a);
    }
    for (std::uint32_t k = 0; k < inert_keys_; ++k) {
      const std::uint64_t s = buckets_[k].size();
      if (s >= 2) weight_.add(k, s * (s - 1));
    }
  }

  template <class Pre, class Post>
  bool run(std::uint64_t max_interactions, Pre&& pre, Post&& post) {
    if (profiler_ == nullptr) {  // detached cost: this one branch per run()
      return run_loop(max_interactions, std::forward<Pre>(pre),
                      std::forward<Post>(post));
    }
    obs::timeline_scope section(profiler_, "engine.run");
    const std::uint64_t before = interactions_;
    const bool stopped = run_loop(max_interactions, std::forward<Pre>(pre),
                                  std::forward<Post>(post));
    profiler_->add_units(interactions_ - before);
    return stopped;
  }

  /// Attaches (or with nullptr detaches) an event-counter sink; see
  /// obs/engine_counters.hpp.  Counters accumulate across run() calls.
  void attach_counters(obs::engine_counters* counters) {
    counters_ = counters;
  }

  /// Attaches (or with nullptr detaches) a section profiler; every run()
  /// call becomes an "engine.run" section carrying the executed
  /// interactions (including skipped certain nulls) as units.
  void attach_profiler(obs::timeline_profiler* profiler) {
    profiler_ = profiler;
  }

  std::uint32_t population_size() const { return n_; }
  std::uint64_t interactions() const { return interactions_; }
  double parallel_time() const {
    return static_cast<double>(interactions_) / n_;
  }
  /// True iff no maybe-active pair remains; the contract then guarantees
  /// the configuration is silent.
  bool quiescent() const { return active_weight() == 0; }

  /// Total weight of maybe-active ordered pairs (0 iff quiescent).
  std::uint64_t active_weight() const {
    const std::uint64_t v = buckets_[inert_keys_].size();
    return weight_.total() + v * (n_ - 1) + (n_ - v) * v;
  }

  std::span<const agent_state> agents() const { return agents_; }
  const P& protocol() const { return protocol_; }
  rng_t& rng() { return rng_; }

 private:
  template <class Pre, class Post>
  bool run_loop(std::uint64_t max_interactions, Pre&& pre, Post&& post) {
    const std::uint64_t total = std::uint64_t{n_} * (n_ - 1);
    while (interactions_ < max_interactions) {
      const std::uint64_t active = active_weight();
      if (active == 0) {
        // Every pair is certainly null: the configuration can never change
        // again.  Charge the rest of the budget in one jump.
        if (counters_) {
          counters_->certain_nulls_skipped += max_interactions - interactions_;
          ++counters_->quiescent_jumps;
        }
        interactions_ = max_interactions;
        return false;
      }
      agent_pair pair;
      if (2 * active >= total) {
        pair = sample_pair(rng_, n_);  // dense regime: skipping cannot win
      } else {
        std::uint64_t skip = 0;
        if (pending_skip_.has_value()) {
          skip = *pending_skip_;
          pending_skip_.reset();
        } else {
          skip = geometric_failures(
              rng_, static_cast<double>(active) / static_cast<double>(total));
          if (counters_) ++counters_->geometric_draws;
        }
        const std::uint64_t left = max_interactions - interactions_;
        if (skip >= left) {
          // The next maybe-active interaction falls beyond the budget: stop
          // here and keep the rest of the skip for the next call.
          if (counters_) counters_->certain_nulls_skipped += left;
          pending_skip_ = skip - left;
          interactions_ = max_interactions;
          return false;
        }
        if (counters_) counters_->certain_nulls_skipped += skip;
        interactions_ += skip;
        pair = sample_active_pair(active);
      }
      pre(pair);
      const bool changed = protocol_.interact(agents_[pair.initiator],
                                              agents_[pair.responder], rng_);
      ++interactions_;
      if (counters_) {
        ++counters_->interactions_executed;
        counters_->transitions_changed += changed;
      }
      if (changed) {
        reindex(pair.initiator);
        reindex(pair.responder);
      }
      if (post(pair, changed)) return true;
    }
    return false;
  }

  std::uint32_t bucket_index(const agent_state& s) const {
    const std::uint32_t k = protocol_.batch_key(s);
    if (k == batch_volatile_key) return inert_keys_;
    SSR_ASSERT(k < inert_keys_);
    return k;
  }

  agent_pair sample_active_pair(std::uint64_t active) {
    std::uint64_t u = uniform_below(rng_, active);
    if (u < weight_.total()) {
      const auto [key, residual] = weight_.find(u);
      const auto& bucket = buckets_[key];
      const std::uint64_t s = bucket.size();
      const std::uint64_t i = residual / (s - 1);
      std::uint64_t j = residual % (s - 1);
      if (j >= i) ++j;  // skip the diagonal: ordered pair of distinct slots
      return {bucket[i], bucket[j]};
    }
    u -= weight_.total();
    const auto& vol = buckets_[inert_keys_];
    const std::uint64_t v = vol.size();
    if (u < v * (n_ - 1)) {
      const std::uint32_t initiator =
          vol[static_cast<std::size_t>(u / (n_ - 1))];
      auto responder = static_cast<std::uint32_t>(u % (n_ - 1));
      if (responder >= initiator) ++responder;  // any agent but the initiator
      return {initiator, responder};
    }
    u -= v * (n_ - 1);
    // Inert initiator x volatile responder; rejection over initiators is
    // uniform over inert agents and cheap here (skip path implies V < n/2).
    const std::uint32_t responder = vol[static_cast<std::size_t>(u % v)];
    while (true) {
      const auto initiator =
          static_cast<std::uint32_t>(uniform_below(rng_, n_));
      if (bucket_of_[initiator] != inert_keys_) return {initiator, responder};
    }
  }

  /// Re-files `agent` after its state may have changed; O(log K) when the
  /// key changed, O(1) when it did not.
  void reindex(std::uint32_t agent) {
    const std::uint32_t to = bucket_index(agents_[agent]);
    const std::uint32_t from = bucket_of_[agent];
    if (to == from) return;
    auto& old_bucket = buckets_[from];
    const std::uint64_t old_size = old_bucket.size();
    const std::uint32_t hole = pos_[agent];
    old_bucket[hole] = old_bucket.back();
    pos_[old_bucket[hole]] = hole;
    old_bucket.pop_back();
    if (from != inert_keys_ && old_size >= 2) {
      // w = s(s-1) drops by 2(s-1) when s -> s-1.
      weight_.add(from, 0 - 2 * (old_size - 1));
      if (counters_) ++counters_->fenwick_updates;
    }
    auto& new_bucket = buckets_[to];
    bucket_of_[agent] = to;
    pos_[agent] = static_cast<std::uint32_t>(new_bucket.size());
    new_bucket.push_back(agent);
    if (to != inert_keys_ && new_bucket.size() >= 2) {
      weight_.add(to, 2 * (new_bucket.size() - 1));
      if (counters_) ++counters_->fenwick_updates;
    }
  }

  P protocol_;
  std::vector<agent_state> agents_;
  rng_t rng_;
  std::uint32_t n_;
  std::uint32_t inert_keys_;
  std::uint64_t interactions_ = 0;

  std::vector<std::vector<std::uint32_t>> buckets_;  // per key + volatile
  std::vector<std::uint32_t> bucket_of_;             // agent -> bucket
  std::vector<std::uint32_t> pos_;                   // agent -> slot
  detail::pair_weight_tree weight_;                  // same-key pair weights
  // Certain nulls left of a skip the last budget cut short.  The
  // configuration cannot change between run() calls (there are no mutable
  // agents), so consuming the rest later is exact and a budget-sliced run
  // matches an unsliced one bit for bit.
  std::optional<std::uint64_t> pending_skip_;
  obs::engine_counters* counters_ = nullptr;
  obs::timeline_profiler* profiler_ = nullptr;
};

/// Generic batched engine: collision-aware block sampling, applied in
/// order.  Exact for every protocol (the pair stream is the scheduler's
/// i.i.d. stream); the win is the tight RNG loop, not null skipping.
template <population_protocol P>
class batched_engine<P, false> {
 public:
  using protocol_type = P;
  using agent_state = typename P::agent_state;

  batched_engine(P protocol, std::vector<agent_state> initial,
                 std::uint64_t seed)
      : protocol_(std::move(protocol)),
        agents_(std::move(initial)),
        rng_(seed),
        scheduler_(protocol_.population_size()) {
    SSR_REQUIRE(agents_.size() == protocol_.population_size());
    SSR_REQUIRE(agents_.size() >= 2);
  }

  template <class Pre, class Post>
  bool run(std::uint64_t max_interactions, Pre&& pre, Post&& post) {
    if (profiler_ == nullptr) {  // detached cost: this one branch per run()
      return run_loop(max_interactions, std::forward<Pre>(pre),
                      std::forward<Post>(post));
    }
    obs::timeline_scope section(profiler_, "engine.run");
    const std::uint64_t before = interactions_;
    const bool stopped = run_loop(max_interactions, std::forward<Pre>(pre),
                                  std::forward<Post>(post));
    profiler_->add_units(interactions_ - before);
    return stopped;
  }

  /// Attaches (or with nullptr detaches) an event-counter sink; see
  /// obs/engine_counters.hpp.  Counters accumulate across run() calls.
  void attach_counters(obs::engine_counters* counters) {
    counters_ = counters;
  }

  /// Attaches (or with nullptr detaches) a section profiler.  The scheduler
  /// shares it, so every block draw nests as "batch.draw" under
  /// "engine.run".
  void attach_profiler(obs::timeline_profiler* profiler) {
    profiler_ = profiler;
    scheduler_.attach_profiler(profiler);
  }

  std::uint32_t population_size() const {
    return protocol_.population_size();
  }
  std::uint64_t interactions() const { return interactions_; }
  double parallel_time() const {
    return static_cast<double>(interactions_) / population_size();
  }
  bool quiescent() const { return false; }

  std::span<const agent_state> agents() const { return agents_; }
  const P& protocol() const { return protocol_; }
  rng_t& rng() { return rng_; }

 private:
  template <class Pre, class Post>
  bool run_loop(std::uint64_t max_interactions, Pre&& pre, Post&& post) {
    while (interactions_ < max_interactions) {
      const auto batch =
          scheduler_.next_batch(rng_, max_interactions - interactions_);
      if (counters_) ++counters_->batches_drawn;
      for (const agent_pair& pair : batch) {
        pre(pair);
        const bool changed = protocol_.interact(
            agents_[pair.initiator], agents_[pair.responder], rng_);
        ++interactions_;
        if (counters_) {
          ++counters_->interactions_executed;
          counters_->transitions_changed += changed;
        }
        if (post(pair, changed)) return true;
      }
    }
    return false;
  }

  P protocol_;
  std::vector<agent_state> agents_;
  rng_t rng_;
  batch_scheduler scheduler_;
  std::uint64_t interactions_ = 0;
  obs::engine_counters* counters_ = nullptr;
  obs::timeline_profiler* profiler_ = nullptr;
};

}  // namespace ssr
