// Per-request telemetry context for serve jobs.
//
// A "run" request that opts into wire telemetry ("trace" / "profile",
// docs/serving.md "Wire telemetry") gets one of these: the service
// constructs it on the connection thread, the runner fills it on the
// worker thread (trace sink, phase-name table, profile document), and the
// service renders it back out -- in-band inside the result document and,
// when the daemon runs with a telemetry directory, into the job's run
// bundle through write_job_bundle (serve/runner.hpp), as ssr_cli run does.
//
// Threading: exactly one worker executes the job, and the connection
// thread only reads the context after job_handle reports a terminal state
// (the handle's completion is the synchronization point), so no locking
// is needed here.
#pragma once

#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/request_spec.hpp"

namespace ssr::serve {

struct request_telemetry {
  explicit request_telemetry(const util::telemetry_spec& opts)
      : options(opts),
        trace(obs::trace_options{
            .sample_every = opts.trace_sample_every,
            .max_events = static_cast<std::size_t>(opts.trace_max_events)}) {}

  util::telemetry_spec options;

  /// Trace of the job's *first trial*.  Serve jobs run trials sequentially
  /// (the worker pool is the concurrency), so trial 0 is a deterministic,
  /// representative trajectory and the trace keeps the single-run framing
  /// tools/trace_stats expects.
  obs::trace_sink trace;

  /// Phase-name table of the traced protocol; entries point at the
  /// protocol's static obs_phase_name storage, so the span outlives the
  /// engines.  Empty for protocols without phase instrumentation.
  std::vector<std::string_view> phase_names;

  /// timeline_profile::to_json() over the whole job (every trial); null
  /// when profiling was not requested.
  obs::json_value profile;

  /// The in-band trace transport: {"header": <trace_header>, "events":
  /// [...]}.  Header and events are rendered by the same serializers
  /// write_jsonl uses, so a client that writes header + events one JSON
  /// dump per line reconstructs the exact JSONL file trace_stats parses.
  obs::json_value trace_json() const {
    obs::json_value doc = obs::json_value::object();
    doc["header"] = trace.header_json(phase_names);
    obs::json_value events = obs::json_value::array();
    for (const obs::trace_event& event : trace.events()) {
      events.push_back(trace.event_to_json(event, phase_names));
    }
    doc["events"] = std::move(events);
    return doc;
  }
};

}  // namespace ssr::serve
