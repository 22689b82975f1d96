// Executes one validated simulation request and renders its result JSON.
//
// This is the bridge between the service scheduler and the measurement
// substrate: a validated util::sim_request_spec maps onto one trial recipe
// per trial seed (serve/trial_recipe.hpp, which ssr_cli's flag mode runs
// too), and run_trial -- the trial function the bench helpers call too --
// runs each one, through run_trials with sequential per-job execution: the
// serve worker pool is the concurrency, so one job never fans out
// internally.  The runner itself only wires telemetry: the per-job
// profiler and counters, and trial 0's trace and phase names.
//
// Determinism contract: the result document is a pure function of the
// spec.  Trial seeds derive from spec.seed exactly as in every bench
// (derive_seed(seed, i)), engines are pure functions of (spec, seed), and
// the JSON layout contains no timestamps -- which is what lets the result
// cache serve bit-identical replays.
//
// Cancellation: the token is polled between trials (pp/trial.hpp), between
// engine bursts (pp/convergence.hpp) and every 1024 transitions of
// baseline's jump simulator on "direct"; a fired token surfaces as
// cancelled_error, which the job queue maps to a cancelled job.  A token
// that never fires leaves the samples bit-identical to an uncancellable
// run's, except on the sharded engine and for sublinear on the batched
// block path, where bursts change the trajectory but not its distribution
// (convergence_options::cancel in pp/convergence.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "obs/engine_counters.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "pp/cancellation.hpp"
#include "serve/request_context.hpp"
#include "util/request_spec.hpp"

namespace ssr::serve {

/// Runs `spec` to completion and returns the result document:
///
///   { "spec": {...},            // canonical echo, defaults materialized
///     "unit": "parallel_time",
///     "samples": [...],         // per-trial stabilization times
///     "stats": { count, mean, stddev, min, max, median, p90, p99 } }
///
/// `metrics`, when non-null, receives live trial accounting
/// (trials.completed counter, trial.seconds histogram) the service's
/// progress streaming reads.  Throws cancelled_error when `cancel` fires
/// and std::runtime_error when a trial fails to converge within
/// spec.max_time.
///
/// `telemetry`, when non-null, is filled on this (worker) thread: the
/// first trial streams into telemetry->trace when tracing was requested
/// (full phase stream for phase-instrumented protocols, run framing +
/// collision/convergence markers otherwise), and with profiling requested
/// a per-job timeline profiler + hardware counter group cover every trial,
/// landing in telemetry->profile.  Telemetry never changes the simulated
/// trajectories, so the result document stays a pure function of the spec.
///
/// `counters`, when non-null, accumulates the engines' work counters
/// (obs/engine_counters.hpp) across every trial -- run bundles persist the
/// aggregate in run.json.  `on_trial`, when set, fires on this thread
/// after each sequential trial with (trials_completed, trials_total);
/// bundle journals turn it into progress events.
std::shared_ptr<const obs::json_value> run_simulation(
    const util::sim_request_spec& spec, const cancel_token* cancel,
    obs::metrics_registry* metrics, request_telemetry* telemetry = nullptr,
    obs::engine_counters* counters = nullptr,
    const std::function<void(std::uint64_t, std::uint64_t)>& on_trial = {});

}  // namespace ssr::serve
