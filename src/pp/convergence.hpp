// Measurement of convergence / stabilization time.
//
// Correctness is tracked *incrementally*, so each interaction costs O(1)
// regardless of n.  The predicate is picked at compile time from the
// protocol's output:
//
//   ranking protocols (rank_of)            a valid ranking, i.e. ranks form
//                                          a permutation of 1..n
//                                          (rank_tracker: a histogram of
//                                          rank values)
//   leader-election protocols (is_leader)  exactly one leader
//                                          (leader_tracker: a leader count)
//
// Either tracker is updated from the values the two interacting agents held
// before and after the interaction.  This matters for the Theta(n^2)-time
// baseline whose executions contain Theta(n^3) interactions, and for loose
// LE, where nearly every interaction changes state.
//
// Terminology follows Section 2 of the paper: an execution converges at
// interaction i if C_{i-1} is not correct and every C_j, j >= i, is correct.
// We estimate the convergence interaction as the *last entry* into the
// correct set, confirmed by running `confirm_parallel_time` further time
// units during which correctness must not be lost.  For the two silent
// protocols correctness implies silence (proved in their headers), so the
// first entry is already stable and a zero confirmation window is exact.
// Loosely-stabilizing LE holds its leader only for a finite (if long)
// time, so its measurement is the first entry into exactly one leader,
// taken with a zero window.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "pp/assert.hpp"
#include "pp/cancellation.hpp"
#include "pp/engine.hpp"
#include "pp/protocol.hpp"
#include "pp/random.hpp"
#include "pp/scheduler.hpp"
#include "pp/sharded_scheduler.hpp"

namespace ssr {

struct convergence_options {
  /// Hard cap on simulated parallel time; the run fails if exceeded.
  double max_parallel_time = 1e9;
  /// Extra parallel time the configuration must remain correct after
  /// (re-)entering the correct set before we declare stabilization.
  double confirm_parallel_time = 0.0;
  /// Cooperative cancellation (pp/cancellation.hpp).  When set, the engine
  /// runs in bounded bursts and the token is polled between them; a fired
  /// token aborts the measurement with cancelled_error.  The direct engine
  /// and the batched count path resume their RNG stream (and any cut
  /// geometric skip) exactly, so there a cancellable run is bit-identical
  /// to an uncancellable one up to the abort point; so is the block path
  /// for a transition that draws no randomness (loose LE).  The
  /// exceptions keep the distribution but not the trajectory: the sharded
  /// engine plans each round up to the budget, and on the block path a
  /// burst cuts a batch short, which moves the scheduler's RNG reads
  /// against a randomized transition's (sublinear).
  const cancel_token* cancel = nullptr;
  /// Request-scoped structured trace (obs/trace.hpp).  When set, the
  /// measurement emits run framing, convergence / correctness_lost markers,
  /// rank collisions, and -- for phase-instrumented protocols -- phase
  /// transitions and reset waves into the sink.  Detached (the default) the
  /// hot loop is untouched: the pointer is tested once per measurement and
  /// the untraced path compiles to exactly the historical loop.
  obs::trace_sink* trace = nullptr;
  /// Request-scoped profiler override.  The timeline profiler is
  /// single-threaded; concurrent measurements (serve workers) each pass
  /// their own collector here instead of sharing the process-wide
  /// profiler_default() the bench front ends install for --profile.
  obs::timeline_profiler* profiler = nullptr;
  /// Request-scoped engine counters.  When set, the engine accumulates
  /// its work counters (interactions executed, certain nulls skipped,
  /// Fenwick updates, ...) into this struct instead of the process-wide
  /// default; run bundles aggregate one instance across all trials.
  obs::engine_counters* counters = nullptr;
};

struct convergence_result {
  /// True iff correctness was reached and held through the confirmation
  /// window within the time cap.
  bool converged = false;
  /// Parallel time of the last entry into the correct set.
  double convergence_time = std::numeric_limits<double>::quiet_NaN();
  /// Total interactions simulated (including the confirmation window).
  std::uint64_t interactions = 0;
  /// Times correctness was lost after having been attained.  Nonzero values
  /// indicate the protocol revoked an apparently-correct ranking (e.g. a
  /// spurious reset); safe protocols keep this at 0 from clean
  /// configurations.
  std::uint32_t correctness_losses = 0;
};

/// Incremental tracker for "ranks form a permutation of 1..n".
class rank_tracker {
 public:
  explicit rank_tracker(std::uint32_t n) : n_(n), count_(n + 1, 0) {}

  /// Registers the initial rank of one agent (call once per agent).
  void add(std::uint32_t rank) {
    const std::uint32_t r = clamp(rank);
    bump(r, +1);
  }

  /// Applies a rank change of one agent.
  void update(std::uint32_t old_rank, std::uint32_t new_rank) {
    const std::uint32_t o = clamp(old_rank);
    const std::uint32_t w = clamp(new_rank);
    if (o == w) return;
    bump(o, -1);
    bump(w, +1);
  }

  /// True iff every rank 1..n is held by exactly one agent.
  bool correct() const { return singletons_ == n_; }

 private:
  // Ranks outside 1..n (including the "no rank" value 0) are pooled in
  // bucket 0; they can never contribute to correctness.
  std::uint32_t clamp(std::uint32_t r) const { return r <= n_ ? r : 0; }

  void bump(std::uint32_t r, int delta) {
    if (r == 0) return;
    const std::uint32_t before = count_[r];
    count_[r] = static_cast<std::uint32_t>(static_cast<int>(before) + delta);
    if (before == 1) --singletons_;
    if (count_[r] == 1) ++singletons_;
  }

  std::uint32_t n_;
  std::vector<std::uint32_t> count_;
  std::uint32_t singletons_ = 0;
};

/// Incremental tracker for "exactly one agent is a leader".
class leader_tracker {
 public:
  /// Registers the initial leader bit of one agent (call once per agent).
  void add(bool leader) { count_ += leader ? 1 : 0; }

  /// Applies a leader-bit change of one agent.
  void update(bool old_leader, bool new_leader) {
    count_ = count_ + (new_leader ? 1 : 0) - (old_leader ? 1 : 0);
  }

  /// Number of leaders.
  std::uint64_t count() const { return count_; }

  /// True iff exactly one agent is a leader.
  bool correct() const { return count_ == 1; }

 private:
  std::uint64_t count_ = 0;
};

/// Runs `sim` -- an engine, or graph_simulation -- until "exactly one
/// leader" equals `unique` after some interaction, or until `budget`
/// interactions.  `leaders` holds the configuration's count and stays
/// current: the pre hook captures the two leader bits, so each interaction
/// costs O(1).  `on_step` runs after every interaction.  Returns true iff
/// the predicate was reached.
template <class Sim, class OnStep>
bool run_until_unique_leader_is(Sim& sim, leader_tracker& leaders,
                                bool unique, std::uint64_t budget,
                                OnStep&& on_step) {
  const auto& p = sim.protocol();
  bool pre_a = false, pre_b = false;
  return sim.run(
      budget,
      [&](const agent_pair& pair) {
        pre_a = p.is_leader(sim.agents()[pair.initiator]);
        pre_b = p.is_leader(sim.agents()[pair.responder]);
      },
      [&](const agent_pair& pair, bool changed) {
        on_step();
        if (changed) {
          leaders.update(pre_a, p.is_leader(sim.agents()[pair.initiator]));
          leaders.update(pre_b, p.is_leader(sim.agents()[pair.responder]));
        }
        return leaders.correct() == unique;
      });
}

/// Protocols the harness can measure: ranking protocols and
/// leader-election-only protocols (pp/protocol.hpp).
template <class P>
concept measurable_protocol =
    ranking_protocol<P> || leader_election_protocol<P>;

namespace detail {

template <class P>
struct correctness_predicate;

/// The correctness predicate of a ranking protocol: a valid ranking,
/// tracked over rank_of.  `observe` is the per-agent value the pre hook
/// captures and the tracker consumes.
template <ranking_protocol P>
struct correctness_predicate<P> {
  using tracker = rank_tracker;
  using value = std::uint32_t;
  static tracker make(std::uint32_t n) { return tracker(n); }
  static value observe(const P& p, const typename P::agent_state& s) {
    return p.rank_of(s);
  }
  /// Two agents meeting with the same rank (the trace's rank_collision).
  static bool collision(value a, value b) { return a == b && a != 0; }
};

/// The correctness predicate of a leader-election protocol: exactly one
/// leader, tracked over is_leader.  It has no ranks, so no collisions.
template <leader_election_protocol P>
  requires(!ranking_protocol<P>)
struct correctness_predicate<P> {
  using tracker = leader_tracker;
  using value = bool;
  static tracker make(std::uint32_t) { return {}; }
  static value observe(const P& p, const typename P::agent_state& s) {
    return p.is_leader(s);
  }
  static bool collision(value, value) { return false; }
};

/// The untraced measurement path: every hook inlines to nothing, so the
/// tracer-parameterized loop below compiles to exactly the historical
/// measure_convergence_run loop (the obs overhead contract: zero cost per
/// interaction when telemetry is detached).
struct null_convergence_tracer {
  static constexpr bool enabled = false;
  void before(const agent_pair&) {}
  void after(const agent_pair&, bool, double, std::uint64_t) {}
  void convergence(double, std::uint64_t) {}
  void correctness_lost(double, std::uint64_t) {}
};

/// Tracer for phase-instrumented protocols (optimal, sublinear): full
/// phase-occupancy stream via phase_observer plus the convergence-harness
/// events (rank collisions and correctness flips) only the measurement
/// loop can see.
template <class P>
class phase_convergence_tracer {
 public:
  static constexpr bool enabled = true;

  phase_convergence_tracer(const P& protocol,
                           std::span<const typename P::agent_state> agents,
                           obs::trace_sink* sink)
      : observer_(protocol, agents, sink) {}

  void begin(double time, std::uint64_t interaction) {
    observer_.begin(time, interaction);
  }
  void end(double time, std::uint64_t interaction) {
    observer_.end(time, interaction);
  }

  void before(const agent_pair& pair) { observer_.before(pair); }
  void after(const agent_pair& pair, bool rank_collision, double time,
             std::uint64_t interaction) {
    observer_.after(pair, /*changed=*/true, time, interaction);
    if (rank_collision) observer_.rank_collision(pair, time, interaction);
  }
  void convergence(double time, std::uint64_t interaction) {
    observer_.convergence(time, interaction);
  }
  void correctness_lost(double time, std::uint64_t interaction) {
    observer_.correctness_lost(time, interaction);
  }

 private:
  obs::phase_observer<P> observer_;
};

/// Tracer for protocols without phase hooks (baseline, loose): run framing,
/// rank collisions (ranking protocols only), and correctness flips -- no
/// phase stream.
class framing_convergence_tracer {
 public:
  static constexpr bool enabled = true;

  explicit framing_convergence_tracer(obs::trace_sink* sink) : sink_(sink) {}

  void begin(double time, std::uint64_t interaction) {
    emit({obs::trace_event_kind::run_start, time, interaction});
  }
  void end(double time, std::uint64_t interaction) {
    emit({obs::trace_event_kind::run_end, time, interaction});
  }

  void before(const agent_pair&) {}
  void after(const agent_pair& pair, bool rank_collision, double time,
             std::uint64_t interaction) {
    if (rank_collision) {
      emit({obs::trace_event_kind::rank_collision, time, interaction,
            pair.initiator});
    }
  }
  void convergence(double time, std::uint64_t interaction) {
    emit({obs::trace_event_kind::convergence, time, interaction});
  }
  void correctness_lost(double time, std::uint64_t interaction) {
    emit({obs::trace_event_kind::correctness_lost, time, interaction});
  }

 private:
  void emit(const obs::trace_event& event) {
    if (sink_ != nullptr) sink_->emit(event);
  }

  obs::trace_sink* sink_;
};

/// The measurement loop, parameterized on a tracer.  Tracer hooks are
/// guarded by `if constexpr (Tracer::enabled)` so the null tracer's path
/// never touches engine.parallel_time() inside the hot hooks.
template <class Tracer, simulation_engine E>
  requires measurable_protocol<typename E::protocol_type>
convergence_result measure_convergence_loop(
    E& engine, const convergence_options& opt,
    std::vector<typename E::agent_state>* final_config, Tracer& tracer) {
  using predicate = correctness_predicate<typename E::protocol_type>;
  const auto& protocol = engine.protocol();
  const std::uint32_t n = engine.population_size();

  auto tracker = predicate::make(n);
  for (const auto& s : engine.agents())
    tracker.add(predicate::observe(protocol, s));

  const auto max_interactions = static_cast<std::uint64_t>(
      opt.max_parallel_time * static_cast<double>(n));
  const auto confirm_interactions = static_cast<std::uint64_t>(
      opt.confirm_parallel_time * static_cast<double>(n));

  convergence_result result;
  std::uint64_t last_entry = 0;  // interaction index of last entry
  bool was_correct = tracker.correct();
  bool ever_correct = was_correct;
  typename predicate::value pre_a{}, pre_b{};  // captured by the pre hook

  // Cancellation polls at burst boundaries: large enough that the poll is
  // free relative to the burst, small enough that a deadline is noticed
  // within tens of milliseconds even on the batched engine.
  const std::uint64_t cancel_burst =
      std::max<std::uint64_t>(std::uint64_t{n} * 64, std::uint64_t{1} << 22);

  while (engine.interactions() < max_interactions) {
    if (opt.cancel != nullptr) opt.cancel->throw_if_cancelled();
    if (was_correct &&
        (engine.interactions() - last_entry >= confirm_interactions ||
         engine.quiescent())) {
      result.converged = true;
      break;
    }
    // While correct, run only to the end of the confirmation window; the
    // next loop iteration then declares convergence (matching the historical
    // check-before-step order).
    std::uint64_t budget =
        was_correct
            ? std::min<std::uint64_t>(max_interactions,
                                      last_entry + confirm_interactions)
            : max_interactions;
    if (opt.cancel != nullptr) {
      budget = std::min(budget, engine.interactions() + cancel_burst);
    }
    engine.run(
        budget,
        [&](const agent_pair& pair) {
          pre_a = predicate::observe(protocol, engine.agents()[pair.initiator]);
          pre_b = predicate::observe(protocol, engine.agents()[pair.responder]);
          if constexpr (Tracer::enabled) tracer.before(pair);
        },
        [&](const agent_pair& pair, bool changed) {
          if (!changed) return false;
          if constexpr (Tracer::enabled) {
            tracer.after(pair, predicate::collision(pre_a, pre_b),
                         engine.parallel_time(), engine.interactions());
          }
          tracker.update(pre_a, predicate::observe(
                                    protocol, engine.agents()[pair.initiator]));
          tracker.update(pre_b, predicate::observe(
                                    protocol, engine.agents()[pair.responder]));
          const bool correct = tracker.correct();
          if (correct == was_correct) return false;
          if (correct) {
            last_entry = engine.interactions();
            ever_correct = true;
            if constexpr (Tracer::enabled) {
              tracer.convergence(engine.parallel_time(),
                                 engine.interactions());
            }
          } else {
            ++result.correctness_losses;
            if constexpr (Tracer::enabled) {
              tracer.correctness_lost(engine.parallel_time(),
                                      engine.interactions());
            }
          }
          was_correct = correct;
          return true;  // correctness flipped: re-evaluate the budget
        });
  }

  result.interactions = engine.interactions();
  if (result.converged && ever_correct) {
    result.convergence_time =
        static_cast<double>(last_entry) / static_cast<double>(n);
  }
  if (final_config != nullptr) {
    final_config->assign(engine.agents().begin(), engine.agents().end());
  }
  return result;
}

}  // namespace detail

/// Measures convergence on an already-constructed engine.  This is the
/// engine-generic core: the direct engine reproduces the historical
/// measure_convergence trajectories bit for bit, and any other
/// simulation_engine (pp/engine.hpp) samples the same distribution.
///
/// Correctness can only change on a state-changing interaction, so engines
/// that elide certainly-null interactions (the batched count engine) feed
/// the tracker an equivalent stream.  When the engine can prove quiescence
/// while the configuration is correct, convergence is declared immediately:
/// no future interaction can revoke correctness, so every confirmation
/// window is trivially satisfied.
///
/// The protocol picks the correctness predicate at compile time: a valid
/// ranking for ranking protocols, exactly one leader for leader-election
/// protocols (see the top of this file).
///
/// With opt.trace set the run additionally streams structured events into
/// the sink: the full phase/reset stream for phase-instrumented protocols,
/// run framing + collision/convergence markers otherwise.  Tracing never
/// perturbs the trajectory -- it only reads states the hooks already see.
template <simulation_engine E>
  requires measurable_protocol<typename E::protocol_type>
convergence_result measure_convergence_run(
    E& engine, const convergence_options& opt = {},
    std::vector<typename E::agent_state>* final_config = nullptr) {
  using P = typename E::protocol_type;
  if (opt.trace == nullptr) {
    detail::null_convergence_tracer tracer;
    return detail::measure_convergence_loop(engine, opt, final_config,
                                            tracer);
  }
  if constexpr (obs::phase_instrumented_protocol<P>) {
    detail::phase_convergence_tracer<P> tracer(engine.protocol(),
                                               engine.agents(), opt.trace);
    tracer.begin(engine.parallel_time(), engine.interactions());
    convergence_result result =
        detail::measure_convergence_loop(engine, opt, final_config, tracer);
    tracer.end(engine.parallel_time(), engine.interactions());
    return result;
  } else {
    detail::framing_convergence_tracer tracer(opt.trace);
    tracer.begin(engine.parallel_time(), engine.interactions());
    convergence_result result =
        detail::measure_convergence_loop(engine, opt, final_config, tracer);
    tracer.end(engine.parallel_time(), engine.interactions());
    return result;
  }
}

/// Runs `protocol` from `initial` under the uniform scheduler and measures
/// convergence per the options.  `final_config`, when non-null, receives the
/// configuration at the end of the run.  Equivalent to
/// measure_convergence_with(engine_kind::direct, ...).
template <measurable_protocol P>
convergence_result measure_convergence(
    P protocol, std::vector<typename P::agent_state> initial,
    std::uint64_t seed, const convergence_options& opt = {},
    std::vector<typename P::agent_state>* final_config = nullptr) {
  SSR_REQUIRE(initial.size() == protocol.population_size());
  direct_engine<P> engine(std::move(protocol), std::move(initial), seed);
  engine.attach_profiler(opt.profiler != nullptr ? opt.profiler
                                                : obs::profiler_default());
  if (opt.counters != nullptr) engine.attach_counters(opt.counters);
  return measure_convergence_run(engine, opt, final_config);
}

/// Engine-selectable variant: runs the measurement on the requested engine.
/// All engines sample the same stabilization-time distribution
/// (tests/engine_equivalence_test.cpp); the batched engine is the one that
/// reaches n >= 10^6 (see docs/protocol_map.md, "Engines"), and the sharded
/// engine (spec.shards workers) the one that uses more than one core.  The
/// measurement needs per-interaction hooks, so the sharded engine runs its
/// sequential hooked mode here -- the trajectory is bit-identical to the
/// threaded run_parallel (tests/sharded_scheduler_fuzz_test.cpp).
template <measurable_protocol P>
convergence_result measure_convergence_with(
    engine_spec spec, P protocol, std::vector<typename P::agent_state> initial,
    std::uint64_t seed, const convergence_options& opt = {},
    std::vector<typename P::agent_state>* final_config = nullptr) {
  SSR_REQUIRE(initial.size() == protocol.population_size());
  // Profiling hook: opt.profiler (per-request collectors, e.g. serve jobs)
  // wins; otherwise the process-wide default a bench front end installed
  // with --profile is attached.
  switch (spec.kind) {
    case engine_kind::direct: {
      direct_engine<P> engine(std::move(protocol), std::move(initial), seed);
      engine.attach_profiler(opt.profiler != nullptr ? opt.profiler
                                                : obs::profiler_default());
      if (opt.counters != nullptr) engine.attach_counters(opt.counters);
      return measure_convergence_run(engine, opt, final_config);
    }
    case engine_kind::sharded: {
      sharded_engine<P> engine(std::move(protocol), std::move(initial), seed,
                               {.shards = spec.shards});
      engine.attach_profiler(opt.profiler != nullptr ? opt.profiler
                                                : obs::profiler_default());
      if (opt.counters != nullptr) engine.attach_counters(opt.counters);
      return measure_convergence_run(engine, opt, final_config);
    }
    case engine_kind::batched:
      break;
  }
  batched_engine<P> engine(std::move(protocol), std::move(initial), seed);
  engine.attach_profiler(opt.profiler != nullptr ? opt.profiler
                                                : obs::profiler_default());
  if (opt.counters != nullptr) engine.attach_counters(opt.counters);
  return measure_convergence_run(engine, opt, final_config);
}

}  // namespace ssr
