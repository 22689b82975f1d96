// Multi-seed trial execution with optional thread parallelism.
//
// Stabilization-time experiments are embarrassingly parallel across seeds;
// run_trials fans the per-seed measurement function out over hardware
// threads while keeping results ordered and reproducible (trial i always
// receives derive_seed(base_seed, i) regardless of thread assignment).
// What a trial runs is the caller's: the bench helpers and the serve
// runner (behind ssr_serve and `ssr_cli run`) pass serve::run_trial over a
// trial recipe (serve/trial_recipe.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.hpp"
#include "pp/cancellation.hpp"

namespace ssr {

/// Runs `body(index)` for every index in [0, count), possibly concurrently.
/// Exceptions thrown by any invocation are rethrown on the calling thread.
/// Every body runs on the calling thread when `parallel` is false or while
/// a default profiler is installed (obs::set_profiler_default, --profile):
/// the section collector is single-threaded and hardware counter groups
/// are bound to the profiling thread.
void parallel_for_index(std::size_t count,
                        const std::function<void(std::size_t)>& body,
                        bool parallel = true);

struct trial_options {
  /// Spread trials over hardware threads (parallel_for_index).
  bool parallel = true;
  /// When set, run_trials records "trials.completed" (counter) and
  /// "trial.seconds" (histogram of per-trial wall time) into the registry.
  /// The registry is thread-safe, so this works under parallel execution.
  obs::metrics_registry* metrics = nullptr;
  /// Cooperative cancellation (pp/cancellation.hpp): polled before every
  /// trial; a fired token aborts the sweep with cancelled_error.  The
  /// serve layer wires per-request deadlines through this.  Trial bodies
  /// that want finer-grained aborts also pass it to convergence_options.
  const cancel_token* cancel = nullptr;
};

/// Runs `trial(seed)` for `count` derived seeds and returns the results in
/// trial order, bit-identical whatever the parallel flag or thread count
/// (tests/determinism_test.cpp).  Each trial is a "trial" profile section.
/// While obs::set_progress_default(true) is in force (the --progress
/// flags) a heartbeat -- trials completed, trials/s, ETA -- goes to stderr.
std::vector<double> run_trials(
    std::size_t count, std::uint64_t base_seed,
    const std::function<double(std::uint64_t)>& trial,
    const trial_options& options = {});

}  // namespace ssr
