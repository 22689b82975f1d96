// The serve request handler: one JSON request line in, one (or more, with
// progress streaming) JSON documents out.
//
// This layer is deliberately transport-free -- it never sees a socket --
// so the whole wire behavior (validation errors, admission control,
// deadline handling, cache semantics, stats) is unit-testable in-process;
// serve/server.hpp glues it to TCP connections.  docs/serving.md is the
// schema reference.
//
// Request documents (line-delimited JSON objects):
//
//   {"type":"run", "id":..., "deadline_ms":..., "progress":bool,
//    "no_cache":bool, <ssr.scenario v1 fields>}
//      -- a scenario file plus "type":"run" is a request: every field but
//         the five transport fields goes to obs::parse_scenario
//         (obs/scenario.hpp), so the field errors are the scenario file's
//         (an unknown name's suggestion also searches the transport
//         fields).  "name" is optional; an unnamed job is named by its
//         request id.  deadline_ms is at most one day.
//   {"type":"stats", "id":...} | {"type":"metrics", "id":...}
//   {"type":"ping", "id":...} | {"type":"shutdown", "id":...}
//
// Response documents (the request's "id" is echoed verbatim):
//
//   {"id":..., "type":"result", "ok":true, "cached":bool,
//    "fingerprint":..., "request_id":"job-N",
//    "result":{...},                              -- runner.hpp layout
//    "telemetry":{"request_id":"job-N",           -- trace or profile
//       "trace":{"header":{...},"events":[...]},  --   requested
//       "profile":{...}},
//    "bundle":{"ok","dir","manifest"}}            -- executed, and the
//                                                 --   daemon has a
//                                                 --   telemetry dir
//   {"id":..., "type":"error", "ok":false, "error":<kind>, "message":...,
//    "field_errors":[{"field","message"},...],    -- kind=invalid_request
//    "retry_after_ms":N}                          -- kind=saturated
//   {"id":..., "type":"progress", "trials_completed":N, "trials_total":N,
//    "elapsed_ms":N}                              -- interim, progress=true
//   {"id":..., "type":"stats", "ok":true, "stats":{...}}
//   {"id":..., "type":"metrics", "ok":true,
//    "content_type":"text/plain; version=0.0.4",
//    "metrics":"<Prometheus exposition text>"}
//   {"id":..., "type":"pong", "ok":true}
//   {"id":..., "type":"shutdown", "ok":true, "draining":true}
//
// Error kinds: invalid_request, saturated, deadline_exceeded, cancelled,
// run_failed.
//
// Cache semantics: the fingerprint is the spec's canonical() form, so
// telemetry never enters it.  A request that sets no_cache or asks for
// trace, profile or metrics skips the lookup, because its artifacts
// must come from a real execution; every other request may be served
// from the cache, and a cache hit writes no bundle.  obs/journal.hpp
// documents the events.jsonl job journal (schema "ssr.serve.events")
// written when the service has a telemetry directory.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "obs/json.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "serve/job_queue.hpp"
#include "serve/result_cache.hpp"

namespace ssr::obs {
struct scenario_doc;  // obs/scenario.hpp
}  // namespace ssr::obs

namespace ssr::serve {

struct service_options {
  /// Worker threads executing simulations.
  std::size_t workers = 2;
  /// Waiting jobs admitted before submits are shed with `saturated`.
  std::size_t max_queue_depth = 16;
  /// Result-cache entries (0 disables caching).
  std::size_t cache_capacity = 128;
  /// Suggested client backoff carried in `saturated` responses.
  std::chrono::milliseconds retry_after{250};
  /// Completion poll slice; also the progress-event emission period.
  std::chrono::milliseconds poll_interval{200};
  /// When nonempty: the directory receiving the events.jsonl job journal
  /// and, for every executed job, the run bundle `ssr_cli run` writes
  /// (<dir>/<request_id>/, obs/bundle.hpp).  Created on construction.
  /// Empty persists nothing, and refuses "metrics" requests (in-band
  /// trace and profile still work).
  std::string telemetry_dir{};
};

class service {
 public:
  explicit service(service_options options = {});
  ~service();

  service(const service&) = delete;
  service& operator=(const service&) = delete;

  /// Receives interim documents (progress events) while a run executes.
  using event_sink = std::function<void(const obs::json_value&)>;

  /// Handles one parsed request document and returns the final response.
  /// Blocks for the duration of a "run" job; progress events stream
  /// through `sink` when the request set "progress": true.
  obs::json_value handle(const obs::json_value& request,
                         const event_sink& sink = {});

  /// Parses one request line first; malformed JSON yields an
  /// invalid_request error response.
  obs::json_value handle_line(std::string_view line,
                              const event_sink& sink = {});

  /// The stats document served for {"type":"stats"} (queue, workers, job
  /// latency quantiles, job counters, cache counters).  Non-const only
  /// because reading a metric creates it on first use, which is also what
  /// makes a fresh service report explicit zeros.
  obs::json_value stats_document();

  /// The Prometheus text exposition served for {"type":"metrics"}: every
  /// registered serve.* metric (obs/exposition.hpp) plus point-in-time
  /// cache/queue gauges refreshed at scrape time.  Also what the daemon's
  /// periodic stats snapshot writes to disk.
  std::string metrics_text();

  /// Set once a {"type":"shutdown"} request is handled; the server's
  /// accept loop polls this to begin the graceful drain.
  bool shutdown_requested() const;

  /// Stops admission and runs every already-accepted job to completion.
  void drain();

  result_cache& cache() { return cache_; }
  obs::metrics_registry& metrics() { return metrics_; }
  const service_options& options() const { return options_; }
  /// The events.jsonl job journal; disabled unless options.telemetry_dir
  /// was set (tests may attach a stream via job_journal().open_stream()).
  obs::journal& job_journal() { return journal_; }

 private:
  obs::json_value handle_run(const obs::json_value& request,
                             const event_sink& sink);
  /// Runs one validated request: cache, admission, journal, progress
  /// streaming, and the job's bundle.  An unnamed `scenario` (empty name)
  /// takes the job's request id as its name.
  obs::json_value execute_run(const obs::json_value& request,
                              const event_sink& sink,
                              obs::scenario_doc scenario, bool want_progress,
                              bool no_cache,
                              std::optional<std::uint64_t> deadline_ms);

  service_options options_;
  obs::metrics_registry metrics_;
  result_cache cache_;
  job_queue queue_;
  /// The daemon's journal keeps its historical schema tag; local run
  /// bundles write the same vocabulary as "ssr.events" (obs/journal.hpp).
  obs::journal journal_{obs::journal_options{.schema = "ssr.serve.events"}};
  std::atomic<std::uint64_t> next_request_id_{1};
  std::atomic<bool> shutdown_requested_{false};
};

}  // namespace ssr::serve
