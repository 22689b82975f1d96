// Wire telemetry end to end, in process: traced/profiled run requests
// through serve::service, the golden shape of the in-band trace transport
// (and its byte-identical reconstruction of the JSONL artifact), the
// events.jsonl job journal schema across the job lifecycle, trace-option
// validation on the wire, the metrics exposition command, and -- under
// the same ServeTelemetry suite the TSan concurrency leg re-runs --
// concurrent telemetered requests sharing one service.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "serve/service.hpp"

namespace ssr::serve {
namespace {

service_options fast_options() {
  service_options options;
  options.workers = 2;
  options.max_queue_depth = 8;
  options.cache_capacity = 16;
  options.poll_interval = std::chrono::milliseconds{10};
  return options;
}

obs::json_value run_request(std::uint64_t n, std::uint64_t trials,
                            std::uint64_t seed) {
  obs::json_value request = obs::json_value::object();
  request["type"] = "run";
  request["protocol"] = "optimal";
  request["n"] = n;
  request["trials"] = trials;
  request["seed"] = seed;
  return request;
}

/// Every journal line parsed back, in order.
std::vector<obs::json_value> journal_lines(const std::string& text) {
  std::vector<obs::json_value> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::optional<obs::json_value> doc = obs::json_value::parse(line);
    EXPECT_TRUE(doc.has_value()) << "unparseable journal line: " << line;
    if (doc.has_value()) lines.push_back(std::move(*doc));
  }
  return lines;
}

const obs::json_value* find_event(const std::vector<obs::json_value>& lines,
                                  std::string_view name) {
  for (const obs::json_value& line : lines) {
    const obs::json_value* event = line.find("event");
    if (event != nullptr && event->is_string() && event->as_string() == name)
      return &line;
  }
  return nullptr;
}

/// The client-side reconstruction write_trace_jsonl (tools/ssr_client)
/// performs: header + events, one dump per line.
std::string reconstruct_jsonl(const obs::json_value& trace) {
  std::ostringstream os;
  os << trace.find("header")->dump() << '\n';
  for (const obs::json_value& event : trace.find("events")->items()) {
    os << event.dump() << '\n';
  }
  return os.str();
}

TEST(ServeTelemetry, TracedRunShipsGoldenInBandTrace) {
  service svc(fast_options());
  obs::json_value request = run_request(32, 2, 7);
  request["trace"] = true;
  const obs::json_value response = svc.handle(request);
  ASSERT_TRUE(response.find("ok")->as_bool()) << response.dump();
  EXPECT_FALSE(response.find("cached")->as_bool());
  ASSERT_NE(response.find("request_id"), nullptr);

  const obs::json_value* telemetry = response.find("telemetry");
  ASSERT_NE(telemetry, nullptr);
  EXPECT_EQ(telemetry->find("request_id")->as_string(),
            response.find("request_id")->as_string());
  const obs::json_value* trace = telemetry->find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(telemetry->find("profile"), nullptr);  // not requested

  // Golden header shape: the exact trace_header document write_jsonl
  // emits, schema-tagged, with sampling accounting and the phase table.
  const obs::json_value* header = trace->find("header");
  ASSERT_NE(header, nullptr);
  EXPECT_EQ(header->find("event")->as_string(), "trace_header");
  EXPECT_EQ(header->find("schema")->as_string(), "ssr.trace");
  EXPECT_EQ(header->find("schema_version")->as_uint64(), 2u);
  ASSERT_NE(header->find("phases"), nullptr);
  EXPECT_GT(header->find("phases")->size(), 0u)
      << "optimal is phase-instrumented; the phase table must be present";
  EXPECT_GT(header->find("offered")->as_uint64(), 0u);

  // Events: the first trial's trajectory, framed run_start ... run_end,
  // with exactly one convergence for a successful run.
  const obs::json_value* events = trace->find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->size(), 2u);
  EXPECT_EQ(events->at(0).find("event")->as_string(), "run_start");
  EXPECT_EQ(events->at(events->size() - 1).find("event")->as_string(),
            "run_end");
  std::size_t convergences = 0;
  for (const obs::json_value& event : events->items()) {
    if (event.find("event")->as_string() == "convergence") ++convergences;
    ASSERT_NE(event.find("time"), nullptr) << event.dump();
  }
  EXPECT_EQ(convergences, 1u);
}

TEST(ServeTelemetry, ArtifactFileMatchesInBandReconstruction) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ssr_telemetry_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  service_options options = fast_options();
  options.telemetry_dir = dir.string();
  {
    service svc(options);
    obs::json_value request = run_request(32, 2, 11);
    request["trace"] = true;
    const obs::json_value response = svc.handle(request);
    ASSERT_TRUE(response.find("ok")->as_bool()) << response.dump();
    const obs::json_value* telemetry = response.find("telemetry");
    ASSERT_NE(telemetry, nullptr);
    const obs::json_value* artifacts = telemetry->find("artifacts");
    ASSERT_NE(artifacts, nullptr);

    // The artifact file on disk and the in-band transport are the same
    // bytes -- a client rewriting header+events per line gets the file
    // trace_stats already parses.
    std::ifstream is(artifacts->find("trace")->as_string());
    ASSERT_TRUE(is.good());
    std::ostringstream file_text;
    file_text << is.rdbuf();
    EXPECT_EQ(file_text.str(), reconstruct_jsonl(*telemetry->find("trace")));

    // The journal artifact exists and leads with the header line.
    std::ifstream journal_is(artifacts->find("events")->as_string());
    ASSERT_TRUE(journal_is.good());
    std::string first_line;
    ASSERT_TRUE(std::getline(journal_is, first_line));
    const std::optional<obs::json_value> header =
        obs::json_value::parse(first_line);
    ASSERT_TRUE(header.has_value());
    EXPECT_EQ(header->find("event")->as_string(), "journal_header");
    EXPECT_EQ(header->find("schema")->as_string(), "ssr.serve.events");
    EXPECT_EQ(header->find("schema_version")->as_uint64(), 1u);
  }
  std::filesystem::remove_all(dir);
}

TEST(ServeTelemetry, ProfiledRunShipsProfileDocument) {
  service svc(fast_options());
  obs::json_value request = run_request(32, 3, 7);
  request["profile"] = true;
  const obs::json_value response = svc.handle(request);
  ASSERT_TRUE(response.find("ok")->as_bool()) << response.dump();
  const obs::json_value* telemetry = response.find("telemetry");
  ASSERT_NE(telemetry, nullptr);
  EXPECT_EQ(telemetry->find("trace"), nullptr);  // not requested
  const obs::json_value* profile = telemetry->find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->find("schema")->as_string(), "ssr.profile");
  const obs::json_value* sections = profile->find("sections");
  ASSERT_NE(sections, nullptr);
  ASSERT_GT(sections->size(), 0u);
  // Every trial runs under the profiler, not just the traced one.
  bool saw_runs = false;
  for (const obs::json_value& section : sections->items()) {
    if (section.find("count")->as_uint64() >= 3) saw_runs = true;
  }
  EXPECT_TRUE(saw_runs) << profile->dump(2);
}

TEST(ServeTelemetry, TelemetryBypassesCacheLookupButStillPopulates) {
  service svc(fast_options());
  const obs::json_value plain = run_request(16, 2, 3);
  ASSERT_TRUE(svc.handle(plain).find("ok")->as_bool());

  // Same spec, traced: must execute (artifacts only exist if it runs).
  obs::json_value traced = plain;
  traced["trace"] = true;
  const obs::json_value second = svc.handle(traced);
  ASSERT_TRUE(second.find("ok")->as_bool());
  EXPECT_FALSE(second.find("cached")->as_bool());
  EXPECT_NE(second.find("telemetry"), nullptr);
  EXPECT_EQ(svc.metrics().get_counter("serve.cache_bypass").value(), 1u);

  // An untelemetered replay still hits the (re)populated cache.
  const obs::json_value third = svc.handle(plain);
  ASSERT_TRUE(third.find("ok")->as_bool());
  EXPECT_TRUE(third.find("cached")->as_bool());
}

TEST(ServeTelemetry, JournalRecordsJobLifecycle) {
  std::ostringstream journal_text;
  service svc(fast_options());
  svc.job_journal().open_stream(&journal_text);

  obs::json_value request = run_request(32, 2, 13);
  request["trace"] = true;
  ASSERT_TRUE(svc.handle(request).find("ok")->as_bool());

  const std::vector<obs::json_value> lines =
      journal_lines(journal_text.str());
  ASSERT_GE(lines.size(), 4u);
  EXPECT_EQ(lines[0].find("event")->as_string(), "journal_header");

  const obs::json_value* admit = find_event(lines, "admit");
  ASSERT_NE(admit, nullptr);
  EXPECT_EQ(admit->find("request_id")->as_string(), "job-1");
  EXPECT_EQ(admit->find("protocol")->as_string(), "optimal");
  EXPECT_EQ(admit->find("n")->as_uint64(), 32u);
  EXPECT_EQ(admit->find("trials")->as_uint64(), 2u);
  EXPECT_NE(admit->find("fingerprint"), nullptr);
  EXPECT_GT(admit->find("ts_ms")->as_uint64(), 0u);

  const obs::json_value* start = find_event(lines, "start");
  ASSERT_NE(start, nullptr);
  EXPECT_EQ(start->find("request_id")->as_string(), "job-1");

  const obs::json_value* complete = find_event(lines, "complete");
  ASSERT_NE(complete, nullptr);
  EXPECT_EQ(complete->find("request_id")->as_string(), "job-1");
  EXPECT_NE(complete->find("elapsed_ms"), nullptr);
  EXPECT_TRUE(complete->find("telemetry")->as_bool());
}

TEST(ServeTelemetry, JournalRecordsCacheHit) {
  std::ostringstream journal_text;
  service svc(fast_options());
  svc.job_journal().open_stream(&journal_text);

  const obs::json_value request = run_request(16, 2, 17);
  ASSERT_TRUE(svc.handle(request).find("ok")->as_bool());
  const obs::json_value replay = svc.handle(request);
  ASSERT_TRUE(replay.find("ok")->as_bool());
  ASSERT_TRUE(replay.find("cached")->as_bool());

  const std::vector<obs::json_value> lines =
      journal_lines(journal_text.str());
  const obs::json_value* hit = find_event(lines, "cache_hit");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->find("request_id")->as_string(), "job-2");
  EXPECT_NE(hit->find("fingerprint"), nullptr);
}

TEST(ServeTelemetry, JournalRecordsDeadlineExpired) {
  std::ostringstream journal_text;
  service svc(fast_options());
  svc.job_journal().open_stream(&journal_text);

  obs::json_value request = run_request(64, 200000, 9);
  request["deadline_ms"] = 1;
  const obs::json_value response = svc.handle(request);
  EXPECT_FALSE(response.find("ok")->as_bool());
  EXPECT_EQ(response.find("error")->as_string(), "deadline_exceeded");
  EXPECT_NE(response.find("request_id"), nullptr);

  const std::vector<obs::json_value> lines = journal_lines(journal_text.str());
  const obs::json_value* expired = find_event(lines, "deadline_expired");
  ASSERT_NE(expired, nullptr);
  EXPECT_EQ(expired->find("request_id")->as_string(), "job-1");
  EXPECT_NE(expired->find("elapsed_ms"), nullptr);
}

TEST(ServeTelemetry, TraceOptionsValidateOnTheWire) {
  service svc(fast_options());

  // Unknown option names get field-level errors with a suggestion.
  obs::json_value request = run_request(16, 1, 1);
  obs::json_value trace = obs::json_value::object();
  trace["sample_evry"] = std::uint64_t{2};
  request["trace"] = trace;
  const obs::json_value response = svc.handle(request);
  EXPECT_FALSE(response.find("ok")->as_bool());
  const obs::json_value* errors = response.find("field_errors");
  ASSERT_NE(errors, nullptr);
  ASSERT_EQ(errors->size(), 1u);
  EXPECT_EQ(errors->at(0).find("field")->as_string(), "trace.sample_evry");
  EXPECT_NE(errors->at(0).find("message")->as_string().find(
                "did you mean sample_every"),
            std::string::npos)
      << errors->at(0).dump();

  // Known option, wrong type.
  obs::json_value bad_type = run_request(16, 1, 1);
  obs::json_value trace2 = obs::json_value::object();
  trace2["max_events"] = "lots";
  bad_type["trace"] = trace2;
  const obs::json_value response2 = svc.handle(bad_type);
  EXPECT_FALSE(response2.find("ok")->as_bool());
  const obs::json_value* errors2 = response2.find("field_errors");
  ASSERT_NE(errors2, nullptr);
  EXPECT_EQ(errors2->at(0).find("field")->as_string(), "trace.max_events");
  EXPECT_EQ(errors2->at(0).find("message")->as_string(),
            "must be a non-negative integer");

  // Zero is rejected by the spec validator, not silently clamped.
  obs::json_value zero = run_request(16, 1, 1);
  obs::json_value trace3 = obs::json_value::object();
  trace3["sample_every"] = std::uint64_t{0};
  zero["trace"] = trace3;
  const obs::json_value response3 = svc.handle(zero);
  EXPECT_FALSE(response3.find("ok")->as_bool());
  EXPECT_EQ(response3.find("field_errors")->at(0).find("field")->as_string(),
            "trace.sample_every");

  // The wrong shape entirely.
  obs::json_value shape = run_request(16, 1, 1);
  shape["trace"] = 3.5;
  const obs::json_value response4 = svc.handle(shape);
  EXPECT_FALSE(response4.find("ok")->as_bool());
  EXPECT_EQ(response4.find("field_errors")->at(0).find("field")->as_string(),
            "trace");
}

TEST(ServeTelemetry, TraceSamplingOptionsReachTheSink) {
  service svc(fast_options());
  obs::json_value request = run_request(32, 1, 19);
  obs::json_value trace = obs::json_value::object();
  trace["max_events"] = std::uint64_t{4};
  request["trace"] = trace;
  const obs::json_value response = svc.handle(request);
  ASSERT_TRUE(response.find("ok")->as_bool()) << response.dump();
  const obs::json_value* shipped =
      response.find("telemetry")->find("trace");
  ASSERT_NE(shipped, nullptr);
  EXPECT_LE(shipped->find("events")->size(), 4u);
  EXPECT_GT(shipped->find("header")->find("dropped")->as_uint64(), 0u);
}

TEST(ServeTelemetry, MetricsCommandServesPrometheusText) {
  service svc(fast_options());
  ASSERT_TRUE(svc.handle(run_request(16, 1, 23)).find("ok")->as_bool());

  const obs::json_value response =
      svc.handle_line(R"({"type":"metrics","id":4})");
  ASSERT_TRUE(response.find("ok")->as_bool()) << response.dump();
  EXPECT_EQ(response.find("type")->as_string(), "metrics");
  EXPECT_EQ(response.find("content_type")->as_string(),
            "text/plain; version=0.0.4");
  const std::string text = response.find("metrics")->as_string();
  EXPECT_NE(text.find("# TYPE ssr_serve_jobs_completed counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ssr_serve_jobs_completed 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ssr_serve_cache_size gauge"),
            std::string::npos);
  EXPECT_NE(text.find("ssr_serve_job_seconds{quantile=\"0.99\"}"),
            std::string::npos);
}

// The TSan leg re-runs this suite: many threads issuing telemetered
// requests against one service, each request owning its private trace
// sink and profiler -- nothing here may share mutable telemetry state.
TEST(ServeTelemetry, ConcurrentTelemeteredRequestsStayIsolated) {
  service_options options = fast_options();
  options.workers = 4;
  service svc(options);
  constexpr int kThreads = 6;
  std::vector<obs::json_value> responses(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&svc, &responses, i] {
      obs::json_value request =
          run_request(32, 2, static_cast<std::uint64_t>(100 + i));
      request["trace"] = true;
      request["profile"] = true;
      responses[static_cast<std::size_t>(i)] = svc.handle(request);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const obs::json_value& response : responses) {
    ASSERT_TRUE(response.find("ok")->as_bool()) << response.dump();
    const obs::json_value* telemetry = response.find("telemetry");
    ASSERT_NE(telemetry, nullptr);
    EXPECT_GT(telemetry->find("trace")->find("events")->size(), 0u);
    EXPECT_GT(telemetry->find("profile")->find("sections")->size(), 0u);
  }
}

}  // namespace
}  // namespace ssr::serve
