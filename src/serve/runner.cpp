#include "serve/runner.hpp"

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

  convergence_options opt;
  opt.max_parallel_time = spec.max_time;
  opt.cancel = cancel;
  opt.profiler = profiler.get();
  opt.counters = counters;

  // Trials run sequentially (the serve worker pool is the concurrency), so
  // the first invocation is trial 0 -- the traced trajectory -- and
  // completion callbacks fire in trial order.
  std::uint64_t completed = 0;
  const std::vector<double> samples = run_trials(
      static_cast<std::size_t>(spec.trials), spec.seed,
      [&](std::uint64_t seed) {
        const bool trace = completed == 0 && telemetry != nullptr &&
                           telemetry->options.trace;
        opt.trace = trace ? &telemetry->trace : nullptr;
        const double time = with_trial_recipe(spec, seed, [&](auto recipe) {
          if (trace) telemetry->phase_names = obs::phase_names(recipe.protocol);
          return run_trial(std::move(recipe), spec.engine, opt);
        });
        ++completed;
        if (on_trial) on_trial(completed, spec.trials);
        return time;
      },
      {.parallel = false, .metrics = metrics, .cancel = cancel});
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
