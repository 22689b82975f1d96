// Per-engine event counters -- the lowest, cheapest layer of the
// observability stack (see obs/metrics.hpp for the registry above it).
//
// Engines hold a nullable pointer to one of these and increment fields
// directly; the disabled path (the default, no counters attached) is a
// single predictable `if (counters_)` branch per executed interaction,
// measured to be within noise of the uninstrumented loop
// (tests/obs_overhead_test.cpp).  The struct is not thread-safe by
// design: one engine, one struct.
//
// This header is dependency-free beyond <cstdint> (pp/engine.hpp includes
// it); JSON serialization lives in obs/metrics.hpp.
#pragma once

#include <cstdint>

namespace ssr::obs {

/// Invariant (checked in tests/obs_metrics_test.cpp): after any run,
///   interactions_executed + certain_nulls_skipped == engine.interactions(),
/// and interactions_executed equals the number of pre/post hook
/// invocations -- skipped certain-nulls are counted here but never
/// surfaced to hooks.
struct engine_counters {
  /// Interactions actually executed (transition function invoked).
  std::uint64_t interactions_executed = 0;
  /// Certainly-null interactions elided by geometric skips or quiescent
  /// jumps (batched count engine only).
  std::uint64_t certain_nulls_skipped = 0;
  /// Executed interactions whose transition changed some state.
  std::uint64_t transitions_changed = 0;
  /// Fenwick-tree weight updates (batched count engine re-filing agents).
  std::uint64_t fenwick_updates = 0;
  /// Geometric skip draws taken (each elides one run of certain nulls).
  std::uint64_t geometric_draws = 0;
  /// Budget exhaustions absorbed in one jump because the engine proved
  /// quiescence.
  std::uint64_t quiescent_jumps = 0;
  /// Scheduler batches drawn (batched block engine only).
  std::uint64_t batches_drawn = 0;
  /// Always 0; leaves with the ssr.run schema bump (ROADMAP item 13).
  std::uint64_t shard_rounds = 0;

  void reset() { *this = engine_counters{}; }

  /// Merges another engine's counters into this one (for cross-trial
  /// aggregation).
  engine_counters& operator+=(const engine_counters& other) {
    interactions_executed += other.interactions_executed;
    certain_nulls_skipped += other.certain_nulls_skipped;
    transitions_changed += other.transitions_changed;
    fenwick_updates += other.fenwick_updates;
    geometric_draws += other.geometric_draws;
    quiescent_jumps += other.quiescent_jumps;
    batches_drawn += other.batches_drawn;
    return *this;
  }
};

}  // namespace ssr::obs
