#include "serve/runner.hpp"

#include <stdexcept>
#include <type_traits>
#include <vector>

#include "analysis/statistics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "pp/convergence.hpp"
#include "pp/trial.hpp"
#include "serve/trial_recipe.hpp"

namespace ssr::serve {
namespace {

/// Telemetry hooks for one trial.  `trace` is null for every trial except
/// the traced one (the job's first); `profiler` covers every trial of a
/// profiled job.  Both are owned by the caller and live on this worker
/// thread.
struct trial_telemetry {
  obs::trace_sink* trace = nullptr;
  obs::timeline_profiler* profiler = nullptr;
  std::vector<std::string_view>* phase_names = nullptr;
  /// Aggregated across every trial of the job (trials are sequential).
  obs::engine_counters* counters = nullptr;
};

/// Baseline on engine "direct", as in the benches: truly direct stepping
/// of the Theta(n^2)-time baseline is Theta(n^3) interactions, so "direct"
/// has always meant the protocol-specialized exact jump simulator, run
/// from the recipe's start configuration and engine seed.
double jump_trial(const trial_recipe<silent_n_state_ssr>& recipe,
                  const convergence_options& opt) {
  const std::uint32_t n = recipe.protocol.population_size();
  std::vector<std::uint32_t> ranks;
  ranks.reserve(n);
  for (const auto& s : recipe.initial) ranks.push_back(s.rank);
  accelerated_silent_n_state sim(n, ranks, recipe.engine_seed);
  sim.attach_counters(opt.counters);
  bool stable = false;
  {
    // The jump simulator has no engine hooks; give the profile a section
    // and the trace its run framing.
    obs::timeline_scope scope(opt.profiler, "accelerated.run");
    stable = sim.run_until_stable(
        static_cast<std::uint64_t>(opt.max_parallel_time *
                                   static_cast<double>(n)),
        opt.cancel);
  }
  if (opt.trace != nullptr) {
    opt.trace->emit({obs::trace_event_kind::run_start, 0.0, 0});
    if (stable) {
      opt.trace->emit({obs::trace_event_kind::convergence,
                       sim.parallel_time(), sim.interactions()});
    }
    opt.trace->emit({obs::trace_event_kind::run_end, sim.parallel_time(),
                     sim.interactions()});
  }
  if (!stable) throw std::runtime_error(recipe.failure);
  return sim.parallel_time();
}

double run_trial(const util::sim_request_spec& spec, std::uint64_t seed,
                 const cancel_token* cancel, const trial_telemetry& tel) {
  return with_trial_recipe(spec, seed, [&](auto recipe) {
    using P = decltype(recipe.protocol);
    convergence_options opt;
    opt.max_parallel_time = spec.max_time;
    opt.confirm_parallel_time = recipe.confirm_parallel_time;
    opt.cancel = cancel;
    opt.trace = tel.trace;
    opt.profiler = tel.profiler;
    opt.counters = tel.counters;
    if constexpr (std::is_same_v<P, silent_n_state_ssr>) {
      if (spec.engine.kind == engine_kind::direct)
        return jump_trial(recipe, opt);
    }
    if (tel.trace != nullptr && tel.phase_names != nullptr)
      *tel.phase_names = obs::phase_names(recipe.protocol);
    const convergence_result result = measure_convergence_with(
        spec.engine, std::move(recipe.protocol), std::move(recipe.initial),
        recipe.engine_seed, opt);
    if (!result.converged) throw std::runtime_error(recipe.failure);
    return result.convergence_time;
  });
}

obs::json_value spec_json(const util::sim_request_spec& spec) {
  obs::json_value doc = obs::json_value::object();
  doc["protocol"] = spec.protocol;
  doc["scenario"] = spec.scenario;
  doc["n"] = static_cast<std::uint64_t>(spec.n);
  if (spec.protocol == "sublinear")
    doc["h"] = static_cast<std::uint64_t>(spec.h);
  if (spec.protocol == "loose")
    doc["t_max"] = static_cast<std::uint64_t>(spec.t_max);
  doc["trials"] = spec.trials;
  doc["seed"] = spec.seed;
  doc["max_time"] = spec.max_time;
  doc["engine"] = std::string(to_string(spec.engine.kind));
  if (spec.engine.kind == engine_kind::sharded)
    doc["shards"] = static_cast<std::uint64_t>(spec.engine.shards);
  return doc;
}

}  // namespace

std::shared_ptr<const obs::json_value> run_simulation(
    const util::sim_request_spec& spec, const cancel_token* cancel,
    obs::metrics_registry* metrics, request_telemetry* telemetry,
    obs::engine_counters* counters,
    const std::function<void(std::uint64_t, std::uint64_t)>& on_trial) {
  trial_options options;
  options.parallel = false;  // the serve worker pool is the concurrency
  options.engine = spec.engine;
  options.metrics = metrics;
  options.cancel = cancel;

  // Per-job profiler on this worker thread: both the timeline collector
  // and the hardware counter group are single-threaded/per-thread, so a
  // process-global profiler would race across concurrent jobs.
  std::unique_ptr<obs::perf_counter_group> perf;
  std::unique_ptr<obs::timeline_profiler> profiler;
  if (telemetry != nullptr && telemetry->options.profile) {
    perf = std::make_unique<obs::perf_counter_group>();
    profiler = std::make_unique<obs::timeline_profiler>(
        obs::timeline_options{.perf = perf.get()});
  }

  // Trials run sequentially (options.parallel = false), so the first
  // invocation is trial 0 -- the traced trajectory -- and completion
  // callbacks fire in trial order.
  bool traced = false;
  std::uint64_t completed = 0;
  const std::vector<double> samples = run_trials(
      static_cast<std::size_t>(spec.trials), spec.seed,
      [&](std::uint64_t seed, engine_kind) {
        trial_telemetry tel;
        tel.profiler = profiler.get();
        tel.counters = counters;
        if (telemetry != nullptr && telemetry->options.trace && !traced) {
          traced = true;
          tel.trace = &telemetry->trace;
          tel.phase_names = &telemetry->phase_names;
        }
        const double time = run_trial(spec, seed, cancel, tel);
        if (on_trial) on_trial(++completed, spec.trials);
        return time;
      },
      options);
  if (profiler != nullptr) telemetry->profile = profiler->profile().to_json();

  const summary stats = summarize(samples);
  auto doc = std::make_shared<obs::json_value>(obs::json_value::object());
  obs::json_value& out = *doc;
  out["spec"] = spec_json(spec);
  out["unit"] = "parallel_time";
  obs::json_value sample_array = obs::json_value::array();
  for (const double s : samples) sample_array.push_back(s);
  out["samples"] = std::move(sample_array);
  obs::json_value stats_doc = obs::json_value::object();
  stats_doc["count"] = static_cast<std::uint64_t>(stats.count);
  stats_doc["mean"] = stats.mean;
  stats_doc["stddev"] = stats.stddev;
  stats_doc["min"] = stats.min;
  stats_doc["max"] = stats.max;
  stats_doc["median"] = stats.median;
  stats_doc["p90"] = stats.p90;
  stats_doc["p99"] = stats.p99;
  out["stats"] = std::move(stats_doc);
  return doc;
}

}  // namespace ssr::serve
