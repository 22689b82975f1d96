#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <system_error>
#include <vector>

#include "obs/bundle.hpp"
#include "obs/exposition.hpp"
#include "obs/progress.hpp"
#include "obs/scenario.hpp"
#include "serve/request_context.hpp"
#include "serve/runner.hpp"
#include "util/request_spec.hpp"

namespace ssr::serve {
namespace {

constexpr std::string_view k_request_types[] = {"run", "stats", "metrics",
                                                "ping", "shutdown"};

// The fields of a "run" request that are not ssr.scenario fields.
constexpr std::string_view k_transport_fields[] = {
    "type", "id", "deadline_ms", "progress", "no_cache"};

// The bound on deadline_ms, as on ssr_serve's duration flags: a longer
// deadline is no use, and from about 9.2e12 ms on, steady_clock's
// nanosecond count wraps and the job would be cancelled at once.
constexpr std::uint64_t k_max_deadline_ms = 86'400'000;

bool is_scenario_field(std::string_view name) {
  const std::span<const std::string_view> names = obs::scenario_field_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// Every field a "run" request may carry: the transport fields, then the
/// scenario fields.
std::span<const std::string_view> run_fields() {
  static const std::vector<std::string_view> names = [] {
    std::vector<std::string_view> all(std::begin(k_transport_fields),
                                      std::end(k_transport_fields));
    const std::span<const std::string_view> scenario =
        obs::scenario_field_names();
    all.insert(all.end(), scenario.begin(), scenario.end());
    return all;
  }();
  return names;
}

/// Non-negative integral JSON number, exact in a double.
std::optional<std::uint64_t> as_u64(const obs::json_value& v) {
  if (!v.is_number()) return std::nullopt;
  const double d = v.as_double();
  if (d < 0.0 || d != std::floor(d) || d > 9.007199254740992e15)
    return std::nullopt;
  return static_cast<std::uint64_t>(d);
}

obs::json_value base_response(const obs::json_value& request,
                              std::string_view type) {
  obs::json_value doc = obs::json_value::object();
  const obs::json_value* id = request.find("id");
  doc["id"] = id != nullptr ? *id : obs::json_value();
  doc["type"] = type;
  return doc;
}

obs::json_value error_response(const obs::json_value& request,
                               std::string_view kind, std::string message) {
  obs::json_value doc = base_response(request, "error");
  doc["ok"] = false;
  doc["error"] = kind;
  doc["message"] = std::move(message);
  return doc;
}

obs::json_value field_errors_json(
    const std::vector<util::spec_error>& errors) {
  obs::json_value arr = obs::json_value::array();
  for (const util::spec_error& e : errors) {
    obs::json_value item = obs::json_value::object();
    item["field"] = e.field;
    item["message"] = e.message;
    arr.push_back(std::move(item));
  }
  return arr;
}

/// The in-band "telemetry" block of a traced or profiled run.
obs::json_value telemetry_json(const request_telemetry& telemetry,
                               const std::string& request_id) {
  obs::json_value doc = obs::json_value::object();
  doc["request_id"] = request_id;
  if (telemetry.options.trace) doc["trace"] = telemetry.trace_json();
  if (telemetry.options.profile) doc["profile"] = telemetry.profile;
  return doc;
}

}  // namespace

service::service(service_options options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity),
      queue_(job_queue_options{.workers = options_.workers,
                               .max_depth = options_.max_queue_depth},
             &metrics_) {
  if (!options_.telemetry_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.telemetry_dir, ec);
    // A restarted daemon numbers its jobs after the highest job-<N> among
    // the bundles already in the directory and the request ids in its
    // journal (cache hits, rejections, cancelled and failed jobs write no
    // bundle), so no id is spent twice.
    const auto spent = [this](std::string_view id) {
      if (id.rfind("job-", 0) != 0) return;
      const std::optional<std::uint64_t> n = util::parse_u64(id.substr(4));
      if (n && *n >= next_request_id_ && *n < UINT64_MAX)
        next_request_id_ = *n + 1;
    };
    for (std::filesystem::directory_iterator it(options_.telemetry_dir, ec),
         end;
         !ec && it != end; it.increment(ec)) {
      spent(it->path().filename().string());
    }
    const std::string journal_path = options_.telemetry_dir + "/events.jsonl";
    {
      std::ifstream events(journal_path);
      for (std::string line; std::getline(events, line);) {
        const std::optional<obs::json_value> event =
            obs::json_value::parse(line);
        const obs::json_value* id =
            event && event->is_object() ? event->find("request_id") : nullptr;
        if (id != nullptr && id->is_string()) spent(id->as_string());
      }
    }
    // A failed open leaves the journal disabled rather than killing the
    // daemon: telemetry persistence is best-effort observability.
    journal_.open(journal_path);
  }
}

service::~service() { queue_.shutdown(/*drain=*/false); }

obs::json_value service::handle_line(std::string_view line,
                                     const event_sink& sink) {
  std::string parse_error;
  const std::optional<obs::json_value> request =
      obs::json_value::parse(line, &parse_error);
  if (!request.has_value()) {
    return error_response(obs::json_value::object(), "invalid_request",
                          "malformed JSON: " + parse_error);
  }
  return handle(*request, sink);
}

obs::json_value service::handle(const obs::json_value& request,
                                const event_sink& sink) {
  if (!request.is_object()) {
    return error_response(obs::json_value::object(), "invalid_request",
                          "request must be a JSON object");
  }
  const obs::json_value* type = request.find("type");
  if (type == nullptr || !type->is_string()) {
    return error_response(request, "invalid_request",
                          "request needs a string \"type\" field");
  }
  const std::string& name = type->as_string();
  if (name == "run") return handle_run(request, sink);
  if (name == "stats") {
    obs::json_value doc = base_response(request, "stats");
    doc["ok"] = true;
    doc["stats"] = stats_document();
    return doc;
  }
  if (name == "metrics") {
    obs::json_value doc = base_response(request, "metrics");
    doc["ok"] = true;
    doc["content_type"] = "text/plain; version=0.0.4";
    doc["metrics"] = metrics_text();
    return doc;
  }
  if (name == "ping") {
    obs::json_value doc = base_response(request, "pong");
    doc["ok"] = true;
    return doc;
  }
  if (name == "shutdown") {
    shutdown_requested_.store(true, std::memory_order_release);
    obs::json_value doc = base_response(request, "shutdown");
    doc["ok"] = true;
    doc["draining"] = true;
    return doc;
  }
  return error_response(
      request, "invalid_request",
      util::unknown_name_message("request type", name, k_request_types));
}

obs::json_value service::handle_run(const obs::json_value& request,
                                    const event_sink& sink) {
  std::vector<util::spec_error> errors;
  bool want_progress = false;
  bool no_cache = false;
  std::optional<std::uint64_t> deadline_ms;
  // Everything but the transport fields is the ssr.scenario document.
  obs::json_value document = obs::json_value::object();
  for (const auto& [field, value] : request.members()) {
    if (field == "type" || field == "id") continue;
    if (field == "deadline_ms") {
      const std::optional<std::uint64_t> u = as_u64(value);
      if (!u.has_value()) {
        errors.push_back({field, "must be a non-negative integer"});
      } else if (*u > k_max_deadline_ms) {
        errors.push_back({field, "must be at most " +
                                     std::to_string(k_max_deadline_ms) +
                                     " (one day)"});
      } else {
        deadline_ms = *u;
      }
      continue;
    }
    if (field == "progress" || field == "no_cache") {
      if (!value.is_bool()) {
        errors.push_back({field, "must be a boolean"});
        continue;
      }
      if (field == "progress") want_progress = value.as_bool();
      if (field == "no_cache") no_cache = value.as_bool();
      continue;
    }
    document[field] = value;
  }
  // A request without a name is named by its request id, which is only
  // assigned once the request validates.
  const bool named = document.find("name") != nullptr;
  if (!named) document["name"] = "unnamed";

  std::vector<util::spec_error> scenario_errors;
  std::optional<obs::scenario_doc> scenario =
      obs::parse_scenario(document, &scenario_errors);
  for (util::spec_error& e : scenario_errors) {
    // Unknown names reach the parser so that every error keeps its
    // request order; the suggestion also searches the transport fields.
    if (document.find(e.field) != nullptr && !is_scenario_field(e.field)) {
      e.message =
          util::unknown_name_message("scenario field", e.field, run_fields());
    }
    errors.push_back(std::move(e));
  }
  if (scenario.has_value() && scenario->emit_metrics &&
      options_.telemetry_dir.empty()) {
    errors.push_back({"metrics",
                      "needs a daemon with a telemetry dir: metrics.prom is "
                      "a file of the job's bundle"});
  }
  if (!errors.empty()) {
    obs::json_value doc =
        error_response(request, "invalid_request",
                       "invalid request: " + util::render_errors(errors));
    doc["field_errors"] = field_errors_json(errors);
    return doc;
  }
  if (!named) scenario->name.clear();
  return execute_run(request, sink, std::move(*scenario), want_progress,
                     no_cache, deadline_ms);
}

obs::json_value service::execute_run(const obs::json_value& request,
                                     const event_sink& sink,
                                     obs::scenario_doc scenario,
                                     bool want_progress, bool no_cache,
                                     std::optional<std::uint64_t> deadline_ms) {
  const util::sim_request_spec& spec = scenario.spec;
  const std::string fingerprint = spec.canonical();
  const std::string request_id =
      "job-" + std::to_string(
                   next_request_id_.fetch_add(1, std::memory_order_relaxed));
  if (scenario.name.empty()) scenario.name = request_id;
  const auto journal_fields = [&] {
    obs::json_value fields = obs::json_value::object();
    fields["request_id"] = request_id;
    return fields;
  };

  // A trace, profile or metrics.prom must observe an actual execution, so
  // a request for one bypasses the cache *lookup*; it still populates the
  // cache below (results are pure functions of the spec, and nothing else
  // enters the fingerprint).
  const bool wants_artifacts =
      scenario.telemetry.any() || scenario.emit_metrics;
  if (!no_cache && !wants_artifacts) {
    if (std::shared_ptr<const obs::json_value> cached =
            cache_.get(fingerprint)) {
      metrics_.get_counter("serve.cache_hits").add(1);
      if (journal_.enabled()) {
        obs::json_value fields = journal_fields();
        fields["fingerprint"] = fingerprint;
        journal_.emit("cache_hit", fields);
      }
      obs::json_value doc = base_response(request, "result");
      doc["ok"] = true;
      doc["cached"] = true;
      doc["fingerprint"] = fingerprint;
      doc["request_id"] = request_id;
      doc["result"] = *cached;
      return doc;
    }
    metrics_.get_counter("serve.cache_misses").add(1);
  } else if (wants_artifacts) {
    metrics_.get_counter("serve.cache_bypass").add(1);
  }

  // Per-job registry: the worker's run_trials accounting lands here, and
  // the connection thread reads it back out for progress events without
  // mixing trials across concurrent jobs.
  auto job_metrics = std::make_shared<obs::metrics_registry>();
  std::shared_ptr<request_telemetry> telemetry;
  if (scenario.telemetry.any()) {
    telemetry = std::make_shared<request_telemetry>(scenario.telemetry);
  }
  // The engines' work counters, aggregated for the bundle's run.json.
  auto counters = std::make_shared<obs::engine_counters>();
  std::shared_ptr<job_handle> handle = queue_.try_submit(
      [this, spec, job_metrics, telemetry, counters,
       request_id](const cancel_token& token) {
        if (journal_.enabled()) {
          obs::json_value fields = obs::json_value::object();
          fields["request_id"] = request_id;
          fields["queue_depth"] =
              static_cast<std::uint64_t>(queue_.depth());
          journal_.emit("start", fields);
        }
        return run_simulation(spec, &token, job_metrics.get(),
                              telemetry.get(), counters.get());
      });
  if (handle == nullptr) {
    metrics_.get_counter("serve.requests_rejected").add(1);
    if (journal_.enabled()) {
      obs::json_value fields = journal_fields();
      fields["queue_depth"] = static_cast<std::uint64_t>(queue_.depth());
      journal_.emit("rejected", fields);
    }
    obs::json_value doc = error_response(
        request, "saturated",
        "job queue is full; retry after the suggested backoff");
    doc["retry_after_ms"] =
        static_cast<std::uint64_t>(options_.retry_after.count());
    return doc;
  }
  if (journal_.enabled()) {
    obs::json_value fields = journal_fields();
    fields["fingerprint"] = fingerprint;
    fields["protocol"] = spec.protocol;
    fields["n"] = static_cast<std::uint64_t>(spec.n);
    fields["trials"] = spec.trials;
    fields["queue_depth"] = static_cast<std::uint64_t>(queue_.depth());
    journal_.emit("admit", fields);
  }
  if (deadline_ms.has_value()) {
    handle->token().set_deadline_after(
        std::chrono::milliseconds(*deadline_ms));
  }

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&start] {
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    return std::floor(elapsed.count());
  };
  while (!handle->wait_for(options_.poll_interval)) {
    if (want_progress && sink) {
      const obs::progress_sample sample =
          obs::read_progress_sample(job_metrics->snapshot());
      obs::json_value event = base_response(request, "progress");
      event["trials_completed"] =
          static_cast<std::uint64_t>(sample.trials_completed);
      event["trials_total"] = spec.trials;
      event["elapsed_ms"] = elapsed_ms();
      sink(event);
      if (journal_.enabled()) {
        obs::json_value fields = journal_fields();
        fields["trials_completed"] =
            static_cast<std::uint64_t>(sample.trials_completed);
        fields["trials_total"] = spec.trials;
        journal_.emit("progress", fields);
      }
    }
  }

  switch (handle->result_state()) {
    case job_handle::state::done: {
      std::shared_ptr<const obs::json_value> result = handle->result();
      if (!no_cache) cache_.put(fingerprint, result);
      obs::json_value doc = base_response(request, "result");
      doc["ok"] = true;
      doc["cached"] = false;
      doc["fingerprint"] = fingerprint;
      doc["request_id"] = request_id;
      doc["result"] = *result;
      if (telemetry != nullptr) {
        doc["telemetry"] = telemetry_json(*telemetry, request_id);
      }
      if (!options_.telemetry_dir.empty()) {
        const obs::bundle_result bundle = write_job_bundle(
            options_.telemetry_dir + "/" + request_id, scenario, *result,
            *counters, telemetry.get(), *job_metrics);
        obs::json_value info = obs::json_value::object();
        info["ok"] = bundle.ok;
        if (bundle.ok) {
          info["dir"] = bundle.dir;
          info["manifest"] = bundle.manifest_path;
        } else {
          info["error"] = bundle.error;
        }
        doc["bundle"] = std::move(info);
      }
      if (journal_.enabled()) {
        obs::json_value fields = journal_fields();
        fields["fingerprint"] = fingerprint;
        fields["elapsed_ms"] = elapsed_ms();
        fields["queue_depth"] = static_cast<std::uint64_t>(queue_.depth());
        fields["telemetry"] = telemetry != nullptr;
        journal_.emit("complete", fields);
      }
      return doc;
    }
    case job_handle::state::cancelled: {
      const bool deadline = handle->deadline_expired();
      if (journal_.enabled()) {
        obs::json_value fields = journal_fields();
        fields["elapsed_ms"] = elapsed_ms();
        fields["message"] = handle->error();
        journal_.emit(deadline ? "deadline_expired" : "cancelled", fields);
      }
      obs::json_value doc = error_response(
          request, deadline ? "deadline_exceeded" : "cancelled",
          handle->error());
      doc["request_id"] = request_id;
      return doc;
    }
    case job_handle::state::failed:
    case job_handle::state::pending:
      break;
  }
  if (journal_.enabled()) {
    obs::json_value fields = journal_fields();
    fields["message"] = handle->error();
    journal_.emit("failed", fields);
  }
  obs::json_value doc = error_response(request, "run_failed",
                                       handle->error());
  doc["request_id"] = request_id;
  return doc;
}

obs::json_value service::stats_document() {
  obs::json_value stats = obs::json_value::object();

  obs::json_value queue = obs::json_value::object();
  queue["depth"] = static_cast<std::uint64_t>(queue_.depth());
  queue["capacity"] = static_cast<std::uint64_t>(queue_.max_depth());
  queue["active_workers"] =
      static_cast<std::uint64_t>(queue_.active_workers());
  queue["worker_pool"] = static_cast<std::uint64_t>(queue_.workers());
  stats["queue"] = std::move(queue);

  obs::json_value jobs = obs::json_value::object();
  for (const std::string_view name :
       {"submitted", "completed", "failed", "cancelled", "rejected"}) {
    jobs[name] = metrics_
                     .get_counter(std::string("serve.jobs_") +
                                  std::string(name))
                     .value();
  }
  stats["jobs"] = std::move(jobs);

  const obs::histogram::snapshot_data lat =
      metrics_.get_histogram("serve.job_seconds").snapshot();
  obs::json_value latency = obs::json_value::object();
  latency["count"] = lat.count;
  latency["mean"] = lat.count == 0
                        ? 0.0
                        : lat.sum / static_cast<double>(lat.count);
  latency["p50"] = lat.p50;
  latency["p90"] = lat.p90;
  latency["p99"] = lat.p99;
  stats["job_seconds"] = std::move(latency);

  obs::json_value cache = obs::json_value::object();
  cache["size"] = static_cast<std::uint64_t>(cache_.size());
  cache["capacity"] = static_cast<std::uint64_t>(cache_.capacity());
  cache["hits"] = cache_.hits();
  cache["misses"] = cache_.misses();
  cache["evictions"] = cache_.evictions();
  cache["hit_rate"] = cache_.hit_rate();
  stats["cache"] = std::move(cache);
  return stats;
}

std::string service::metrics_text() {
  // Point-in-time values live outside the registry (cache internals, queue
  // sizing); refresh them as gauges at scrape time so one exposition
  // carries the full picture.  Counter-valued serve.* metrics (cache
  // hits/misses, jobs_*) are already registry-resident.
  metrics_.get_gauge("serve.cache_size")
      .set(static_cast<double>(cache_.size()));
  metrics_.get_gauge("serve.cache_capacity")
      .set(static_cast<double>(cache_.capacity()));
  metrics_.get_gauge("serve.cache_evictions")
      .set(static_cast<double>(cache_.evictions()));
  metrics_.get_gauge("serve.cache_hit_rate").set(cache_.hit_rate());
  return obs::prometheus_text(metrics_);
}

bool service::shutdown_requested() const {
  return shutdown_requested_.load(std::memory_order_acquire);
}

void service::drain() { queue_.shutdown(/*drain=*/true); }

}  // namespace ssr::serve
