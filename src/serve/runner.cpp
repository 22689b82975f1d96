#include "serve/runner.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "analysis/statistics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "pp/accelerated.hpp"
#include "pp/convergence.hpp"
#include "pp/trial.hpp"
#include "protocols/adversary.hpp"
#include "protocols/loose_stabilizing.hpp"
#include "protocols/optimal_silent.hpp"
#include "protocols/silent_n_state.hpp"
#include "protocols/sublinear.hpp"

namespace ssr::serve {
namespace {

// Scenario names were validated by util::spec_builder, so lookups here
// cannot fail on well-formed service input; the throw guards direct
// library callers.
optimal_silent_scenario optimal_scenario_of(const std::string& name) {
  if (name == "uniform_random") return optimal_silent_scenario::uniform_random;
  if (name == "all_settled_rank_one")
    return optimal_silent_scenario::all_settled_rank_one;
  if (name == "no_leader") return optimal_silent_scenario::no_leader;
  if (name == "all_unsettled_expired")
    return optimal_silent_scenario::all_unsettled_expired;
  if (name == "all_dormant_followers")
    return optimal_silent_scenario::all_dormant_followers;
  if (name == "duplicated_ranks")
    return optimal_silent_scenario::duplicated_ranks;
  if (name == "valid_ranking") return optimal_silent_scenario::valid_ranking;
  throw std::runtime_error("unvalidated optimal scenario: " + name);
}

sublinear_scenario sublinear_scenario_of(const std::string& name) {
  if (name == "uniform_random") return sublinear_scenario::uniform_random;
  if (name == "all_same_name") return sublinear_scenario::all_same_name;
  if (name == "single_collision") return sublinear_scenario::single_collision;
  if (name == "ghost_names") return sublinear_scenario::ghost_names;
  if (name == "missing_own_name")
    return sublinear_scenario::missing_own_name;
  if (name == "planted_histories")
    return sublinear_scenario::planted_histories;
  if (name == "mid_reset") return sublinear_scenario::mid_reset;
  if (name == "valid_ranking") return sublinear_scenario::valid_ranking;
  throw std::runtime_error("unvalidated sublinear scenario: " + name);
}

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

/// Records the traced protocol's phase-name table so the trace header and
/// events can name phases; no-op for uninstrumented protocols.
template <class P>
void record_phase_names(const P& protocol, const trial_telemetry& tel) {
  if (tel.trace == nullptr || tel.phase_names == nullptr) return;
  if constexpr (obs::phase_instrumented_protocol<P>) {
    tel.phase_names->resize(protocol.obs_phase_count());
    for (std::uint32_t ph = 0; ph < tel.phase_names->size(); ++ph) {
      (*tel.phase_names)[ph] = P::obs_phase_name(ph);
    }
  }
}

/// The time of a converged measurement; a trial that did not converge
/// within max_time fails the job.
double converged_time(const convergence_result& r, const char* failure) {
  if (!r.converged) throw std::runtime_error(failure);
  return r.convergence_time;
}

double run_trial(const util::sim_request_spec& spec, std::uint64_t seed,
                 const cancel_token* cancel, const trial_telemetry& tel) {
  convergence_options opt;
  opt.max_parallel_time = spec.max_time;
  opt.cancel = cancel;
  opt.trace = tel.trace;
  opt.profiler = tel.profiler;
  opt.counters = tel.counters;
  if (spec.protocol == "baseline") {
    if (spec.engine.kind == engine_kind::direct) {
      // Same fast path as the benches: truly direct stepping of the
      // Theta(n^2)-time baseline is Theta(n^3) interactions, so "direct"
      // has always meant the protocol-specialized exact jump simulator.
      rng_t rng(seed);
      std::vector<std::uint32_t> ranks(spec.n);
      for (auto& r : ranks)
        r = static_cast<std::uint32_t>(uniform_below(rng, spec.n));
      accelerated_silent_n_state sim(spec.n, ranks, seed ^ 0x5bd1e995);
      double time = 0.0;
      {
        // The jump simulator has no engine hooks; give the profile a
        // section and the trace its run framing (interactions are not
        // individually simulated, so the count stays 0).
        obs::timeline_scope scope(tel.profiler, "accelerated.run");
        time = sim.run_to_stabilization();
      }
      if (tel.trace != nullptr) {
        tel.trace->emit({obs::trace_event_kind::run_start, 0.0, 0});
        tel.trace->emit({obs::trace_event_kind::convergence, time, 0});
        tel.trace->emit({obs::trace_event_kind::run_end, time, 0});
      }
      return time;
    }
    silent_n_state_ssr protocol(spec.n);
    record_phase_names(protocol, tel);
    rng_t rng(seed);
    auto initial = adversarial_configuration(protocol, rng);
    return converged_time(
        measure_convergence_with(spec.engine, protocol, std::move(initial),
                                 seed ^ 0x5bd1e995, opt),
        "baseline did not converge within max_time");
  }
  if (spec.protocol == "optimal") {
    optimal_silent_ssr protocol(spec.n);
    record_phase_names(protocol, tel);
    rng_t rng(seed);
    auto initial = adversarial_configuration(
        protocol, optimal_scenario_of(spec.scenario), rng);
    return converged_time(
        measure_convergence_with(spec.engine, protocol, std::move(initial),
                                 seed ^ 0x9747b28c, opt),
        "optimal-silent did not converge within max_time");
  }
  if (spec.protocol == "sublinear") {
    sublinear_time_ssr protocol(spec.n, spec.h);
    record_phase_names(protocol, tel);
    rng_t rng(seed);
    auto initial = adversarial_configuration(
        protocol, sublinear_scenario_of(spec.scenario), rng);
    // The protocol is non-silent; hold correctness for a confirmation
    // window scaled like the bench sweeps do.
    opt.confirm_parallel_time =
        8.0 * std::log2(static_cast<double>(spec.n) + 1.0);
    return converged_time(
        measure_convergence_with(spec.engine, protocol, std::move(initial),
                                 seed ^ 0x85ebca6b, opt),
        "sublinear did not converge within max_time");
  }
  if (spec.protocol == "loose") {
    const auto t_max =
        spec.t_max > 0
            ? spec.t_max
            : static_cast<std::uint32_t>(
                  4 * std::ceil(std::log2(static_cast<double>(spec.n))));
    loose_stabilizing_le protocol(spec.n, t_max);
    // Loose stabilization keeps its leader only for a finite holding time,
    // so the measurement is the first entry into exactly one leader: no
    // confirmation window.  The protocol has no phase hooks; its trace is
    // run framing plus the convergence marker.
    return converged_time(
        measure_convergence_with(spec.engine, protocol,
                                 protocol.dead_configuration(), seed, opt),
        "loose LE found no unique leader within max_time");
  }
  throw std::runtime_error("unvalidated protocol: " + spec.protocol);
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
