// The serve layer in-process: admission control on the job queue, the
// full wire behavior of serve::service (validation golden errors, cache
// replay, saturation, deadlines, graceful drain), and -- under the
// ServeConcurrency suite, which the TSan concurrency leg re-runs -- many
// clients hammering one service from parallel threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/bundle.hpp"
#include "obs/json.hpp"
#include "serve/job_queue.hpp"
#include "serve/result_cache.hpp"
#include "serve/service.hpp"

namespace ssr::serve {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<const obs::json_value> small_doc(double v) {
  auto doc = std::make_shared<obs::json_value>(obs::json_value::object());
  (*doc)["value"] = v;
  return doc;
}

/// Work that spins (politely) until released, polling its cancel token --
/// the shape of a real simulation job with the compute stripped out.
job_work blocking_work(std::atomic<bool>& release) {
  return [&release](const cancel_token& token) {
    while (!release.load()) {
      token.throw_if_cancelled();
      std::this_thread::sleep_for(1ms);
    }
    return small_doc(1.0);
  };
}

void wait_until_active(const job_queue& queue, std::size_t workers) {
  for (int i = 0; i < 5000 && queue.active_workers() < workers; ++i)
    std::this_thread::sleep_for(1ms);
  ASSERT_EQ(queue.active_workers(), workers);
}

TEST(ServeQueue, RejectsWhenSaturated) {
  std::atomic<bool> release{false};
  job_queue queue({.workers = 1, .max_depth = 1}, nullptr);
  const auto running = queue.try_submit(blocking_work(release));
  ASSERT_NE(running, nullptr);
  wait_until_active(queue, 1);

  const auto queued = queue.try_submit(blocking_work(release));
  ASSERT_NE(queued, nullptr);  // fills the single waiting slot
  EXPECT_EQ(queue.depth(), 1u);

  // Admission control: the queue sheds instead of buffering.
  EXPECT_EQ(queue.try_submit(blocking_work(release)), nullptr);

  release.store(true);
  running->wait();
  queued->wait();
  EXPECT_EQ(running->result_state(), job_handle::state::done);
  EXPECT_EQ(queued->result_state(), job_handle::state::done);
  queue.shutdown(true);
}

TEST(ServeQueue, DrainRunsEverythingAlreadyAccepted) {
  job_queue queue({.workers = 2, .max_depth = 16}, nullptr);
  std::vector<std::shared_ptr<job_handle>> handles;
  for (int i = 0; i < 8; ++i) {
    auto handle = queue.try_submit(
        [i](const cancel_token&) { return small_doc(i); });
    ASSERT_NE(handle, nullptr);
    handles.push_back(std::move(handle));
  }
  queue.shutdown(true);
  for (const auto& handle : handles)
    EXPECT_EQ(handle->result_state(), job_handle::state::done);
  // Admission is closed after shutdown.
  EXPECT_EQ(queue.try_submit([](const cancel_token&) { return small_doc(0); }),
            nullptr);
}

TEST(ServeQueue, ImmediateShutdownCancelsQueuedAndRunning) {
  std::atomic<bool> release{false};
  job_queue queue({.workers = 1, .max_depth = 4}, nullptr);
  const auto running = queue.try_submit(blocking_work(release));
  ASSERT_NE(running, nullptr);
  wait_until_active(queue, 1);
  const auto queued = queue.try_submit(blocking_work(release));
  ASSERT_NE(queued, nullptr);

  queue.shutdown(false);  // fires tokens, never runs the queued job
  EXPECT_EQ(running->result_state(), job_handle::state::cancelled);
  EXPECT_EQ(queued->result_state(), job_handle::state::cancelled);
}

TEST(ServeQueue, TokenCancelAbortsRunningJob) {
  std::atomic<bool> release{false};
  job_queue queue({.workers = 1, .max_depth = 4}, nullptr);
  const auto handle = queue.try_submit(blocking_work(release));
  ASSERT_NE(handle, nullptr);
  wait_until_active(queue, 1);
  handle->token().request_cancel();
  handle->wait();
  EXPECT_EQ(handle->result_state(), job_handle::state::cancelled);
  EXPECT_FALSE(handle->deadline_expired());
  queue.shutdown(true);
}

TEST(ServeQueue, DeadlineCancelIsDistinguishable) {
  std::atomic<bool> release{false};
  job_queue queue({.workers = 1, .max_depth = 4}, nullptr);
  const auto handle = queue.try_submit(blocking_work(release));
  ASSERT_NE(handle, nullptr);
  handle->token().set_deadline_after(5ms);
  handle->wait();
  EXPECT_EQ(handle->result_state(), job_handle::state::cancelled);
  EXPECT_TRUE(handle->deadline_expired());
  queue.shutdown(true);
}

// -- service: the wire behavior, no sockets involved. --------------------

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

TEST(ServeService, MalformedJsonIsInvalidRequest) {
  service svc(fast_options());
  const obs::json_value response = svc.handle_line("{not json");
  EXPECT_EQ(response.find("type")->as_string(), "error");
  EXPECT_EQ(response.find("error")->as_string(), "invalid_request");
  EXPECT_FALSE(response.find("ok")->as_bool());
}

TEST(ServeService, UnknownRequestTypeSuggestsNearest) {
  service svc(fast_options());
  const obs::json_value response = svc.handle_line(R"({"type":"rnu"})");
  EXPECT_EQ(response.find("error")->as_string(), "invalid_request");
  EXPECT_NE(response.find("message")->as_string().find("did you mean run"),
            std::string::npos)
      << response.find("message")->as_string();
}

TEST(ServeService, ValidationErrorsAreFieldLevel) {
  service svc(fast_options());
  const obs::json_value response =
      svc.handle_line(R"({"type":"run","id":7,"protocol":"basline","n":1})");
  EXPECT_EQ(response.find("id")->as_int64(), 7);
  EXPECT_EQ(response.find("error")->as_string(), "invalid_request");
  const obs::json_value* errors = response.find("field_errors");
  ASSERT_NE(errors, nullptr);
  ASSERT_EQ(errors->size(), 2u);
  EXPECT_EQ(errors->at(0).find("field")->as_string(), "protocol");
  EXPECT_EQ(errors->at(0).find("message")->as_string(),
            "unknown protocol 'basline' (did you mean baseline?)");
  EXPECT_EQ(errors->at(1).find("field")->as_string(), "n");
  EXPECT_EQ(errors->at(1).find("message")->as_string(),
            "population size must be at least 2");
}

TEST(ServeService, WrongFieldTypesAndUnknownFieldsAreCaught) {
  service svc(fast_options());
  const obs::json_value response = svc.handle_line(
      R"({"type":"run","n":"forty","protocool":"optimal"})");
  const obs::json_value* errors = response.find("field_errors");
  ASSERT_NE(errors, nullptr);
  ASSERT_EQ(errors->size(), 2u);
  EXPECT_EQ(errors->at(0).find("field")->as_string(), "n");
  EXPECT_EQ(errors->at(0).find("message")->as_string(),
            "must be a non-negative integer");
  EXPECT_EQ(errors->at(1).find("field")->as_string(), "protocool");
  EXPECT_NE(
      errors->at(1).find("message")->as_string().find("did you mean protocol"),
      std::string::npos);
}

TEST(ServeService, RestartNumbersJobsAfterTheBundlesInItsDirectory) {
  // A daemon restarted on the same telemetry dir continues the job ids
  // instead of writing a second job-1 into the first daemon's bundle.
  const std::string dir = testing::TempDir() + "serve_restart_ids";
  std::filesystem::remove_all(dir);
  service_options options = fast_options();
  options.telemetry_dir = dir;
  {
    service svc(options);
    obs::json_value traced = run_request(16, 2, 5);
    traced["trace"] = true;
    const obs::json_value response = svc.handle(traced);
    ASSERT_TRUE(response.find("ok")->as_bool()) << response.dump();
    EXPECT_EQ(response.find("request_id")->as_string(), "job-1");
  }
  service svc(options);
  const obs::json_value response = svc.handle(run_request(16, 2, 6));
  ASSERT_TRUE(response.find("ok")->as_bool()) << response.dump();
  EXPECT_EQ(response.find("request_id")->as_string(), "job-2");
  for (const char* job : {"/job-1", "/job-2"}) {
    const obs::manifest_check check = obs::verify_bundle(dir + job);
    EXPECT_TRUE(check.ok()) << job << ": " << check.problems.front();
  }
}

TEST(ServeService, RestartSkipsIdsSpentWithoutABundle) {
  // A cache hit spends an id but writes no bundle; the journal remembers
  // it, so a restarted daemon does not hand it out again.
  const std::string dir = testing::TempDir() + "serve_restart_journal_ids";
  std::filesystem::remove_all(dir);
  service_options options = fast_options();
  options.telemetry_dir = dir;
  {
    service svc(options);
    const obs::json_value request = run_request(16, 2, 5);
    ASSERT_TRUE(svc.handle(request).find("ok")->as_bool());
    const obs::json_value replay = svc.handle(request);
    ASSERT_TRUE(replay.find("cached")->as_bool()) << replay.dump();
    EXPECT_EQ(replay.find("request_id")->as_string(), "job-2");
  }
  std::vector<std::string> spent;
  {
    std::ifstream events(dir + "/events.jsonl");
    for (std::string line; std::getline(events, line);) {
      const obs::json_value event = *obs::json_value::parse(line);
      if (const obs::json_value* id = event.find("request_id"))
        spent.push_back(id->as_string());
    }
  }
  ASSERT_NE(std::find(spent.begin(), spent.end(), "job-2"), spent.end());
  service svc(options);
  const obs::json_value response = svc.handle(run_request(16, 2, 6));
  ASSERT_TRUE(response.find("ok")->as_bool()) << response.dump();
  const std::string& id = response.find("request_id")->as_string();
  EXPECT_EQ(id, "job-3");
  EXPECT_EQ(std::find(spent.begin(), spent.end(), id), spent.end()) << id;
}

TEST(ServeService, PingPong) {
  service svc(fast_options());
  const obs::json_value response =
      svc.handle_line(R"({"type":"ping","id":"p1"})");
  EXPECT_EQ(response.find("type")->as_string(), "pong");
  EXPECT_EQ(response.find("id")->as_string(), "p1");
  EXPECT_TRUE(response.find("ok")->as_bool());
}

TEST(ServeService, RunThenCachedReplayIsBitIdentical) {
  service svc(fast_options());
  const obs::json_value request = run_request(16, 2, 5);

  const obs::json_value first = svc.handle(request);
  ASSERT_TRUE(first.find("ok")->as_bool()) << first.dump();
  EXPECT_EQ(first.find("type")->as_string(), "result");
  EXPECT_FALSE(first.find("cached")->as_bool());
  ASSERT_NE(first.find("result"), nullptr);
  EXPECT_EQ(first.find("result")->find("samples")->size(), 2u);

  const obs::json_value replay = svc.handle(request);
  ASSERT_TRUE(replay.find("ok")->as_bool());
  EXPECT_TRUE(replay.find("cached")->as_bool());
  EXPECT_EQ(replay.find("fingerprint")->as_string(),
            first.find("fingerprint")->as_string());
  EXPECT_EQ(replay.find("result")->dump(), first.find("result")->dump());
  EXPECT_EQ(svc.cache().hits(), 1u);
  EXPECT_EQ(svc.cache().misses(), 1u);
}

TEST(ServeService, FingerprintIgnoresIrrelevantFields) {
  // Same logical request, different field order plus an h the optimal
  // protocol ignores: one miss, one hit.
  service svc(fast_options());
  const obs::json_value first = svc.handle_line(
      R"({"type":"run","protocol":"optimal","n":16,"trials":2,"seed":5})");
  ASSERT_TRUE(first.find("ok")->as_bool()) << first.dump();
  const obs::json_value second = svc.handle_line(
      R"({"type":"run","seed":5,"trials":2,"h":9,"n":16,"protocol":"optimal"})");
  ASSERT_TRUE(second.find("ok")->as_bool());
  EXPECT_TRUE(second.find("cached")->as_bool());
  EXPECT_EQ(second.find("fingerprint")->as_string(),
            first.find("fingerprint")->as_string());
}

TEST(ServeService, NoCacheBypassesBothLookupAndInsert) {
  service svc(fast_options());
  obs::json_value request = run_request(16, 1, 3);
  request["no_cache"] = true;
  const obs::json_value first = svc.handle(request);
  const obs::json_value second = svc.handle(request);
  ASSERT_TRUE(first.find("ok")->as_bool());
  ASSERT_TRUE(second.find("ok")->as_bool());
  EXPECT_FALSE(first.find("cached")->as_bool());
  EXPECT_FALSE(second.find("cached")->as_bool());
  EXPECT_EQ(svc.cache().size(), 0u);
  EXPECT_EQ(svc.cache().hits(), 0u);
}

TEST(ServeService, SaturatedResponseCarriesRetryAfter) {
  service_options options = fast_options();
  options.max_queue_depth = 0;  // every admission is shed
  options.retry_after = std::chrono::milliseconds{125};
  service svc(options);
  const obs::json_value response = svc.handle(run_request(16, 1, 1));
  EXPECT_EQ(response.find("error")->as_string(), "saturated");
  EXPECT_FALSE(response.find("ok")->as_bool());
  EXPECT_EQ(response.find("retry_after_ms")->as_int64(), 125);
}

TEST(ServeService, DeadlineExceededOnSlowRun) {
  service svc(fast_options());
  // Enough trials that the 1ms deadline fires long before completion; the
  // cancellation poll between trials turns it into a deadline error.
  obs::json_value request = run_request(64, 200000, 9);
  request["deadline_ms"] = 1;
  const obs::json_value response = svc.handle(request);
  EXPECT_FALSE(response.find("ok")->as_bool());
  EXPECT_EQ(response.find("error")->as_string(), "deadline_exceeded");
  // A failed run must not poison the cache.
  EXPECT_EQ(svc.cache().size(), 0u);
}

TEST(ServeService, DeadlineAboveOneDayIsAFieldError) {
  // 10^13 ms would wrap steady_clock's nanoseconds and cancel the job at
  // once; the field is bounded at one day, like ssr_serve's duration flags.
  service svc(fast_options());
  obs::json_value request = run_request(16, 1, 3);
  request["deadline_ms"] = std::uint64_t{10'000'000'000'000};
  const obs::json_value response = svc.handle(request);
  const obs::json_value* errors = response.find("field_errors");
  ASSERT_NE(errors, nullptr) << response.dump();
  ASSERT_EQ(errors->size(), 1u);
  EXPECT_EQ(errors->at(0).find("field")->as_string(), "deadline_ms");
  EXPECT_EQ(errors->at(0).find("message")->as_string(),
            "must be at most 86400000 (one day)");

  request["deadline_ms"] = std::uint64_t{86'400'000};
  EXPECT_TRUE(svc.handle(request).find("ok")->as_bool());
}

TEST(ServeService, ProgressEventsStreamDuringRun) {
  service_options options = fast_options();
  options.poll_interval = std::chrono::milliseconds{1};
  service svc(options);
  obs::json_value request = run_request(64, 400, 11);
  request["progress"] = true;
  std::vector<std::string> kinds;
  const obs::json_value response =
      svc.handle(request, [&](const obs::json_value& event) {
        kinds.push_back(event.find("type")->as_string());
      });
  ASSERT_TRUE(response.find("ok")->as_bool()) << response.dump();
  ASSERT_FALSE(kinds.empty());
  for (const std::string& kind : kinds) EXPECT_EQ(kind, "progress");
}

TEST(ServeService, ShutdownDrainsAndClosesAdmission) {
  service svc(fast_options());
  ASSERT_TRUE(svc.handle(run_request(16, 1, 2)).find("ok")->as_bool());
  const obs::json_value response =
      svc.handle_line(R"({"type":"shutdown","id":1})");
  EXPECT_EQ(response.find("type")->as_string(), "shutdown");
  EXPECT_TRUE(response.find("draining")->as_bool());
  EXPECT_TRUE(svc.shutdown_requested());
  svc.drain();
  // After the drain the queue sheds everything...
  const obs::json_value rejected = svc.handle(run_request(16, 1, 99));
  EXPECT_EQ(rejected.find("error")->as_string(), "saturated");
  // ...but cached results still serve.
  const obs::json_value cached = svc.handle(run_request(16, 1, 2));
  EXPECT_TRUE(cached.find("ok")->as_bool());
  EXPECT_TRUE(cached.find("cached")->as_bool());
}

TEST(ServeService, StatsDocumentTracksQueueJobsAndCache) {
  service svc(fast_options());
  const obs::json_value fresh = svc.stats_document();
  EXPECT_EQ(fresh.find("queue")->find("depth")->as_int64(), 0);
  EXPECT_EQ(fresh.find("queue")->find("capacity")->as_int64(), 8);
  EXPECT_EQ(fresh.find("queue")->find("worker_pool")->as_int64(), 2);
  EXPECT_EQ(fresh.find("jobs")->find("submitted")->as_int64(), 0);
  EXPECT_EQ(fresh.find("cache")->find("hit_rate")->as_double(), 0.0);

  const obs::json_value request = run_request(16, 2, 5);
  ASSERT_TRUE(svc.handle(request).find("ok")->as_bool());
  ASSERT_TRUE(svc.handle(request).find("ok")->as_bool());  // cache hit

  const obs::json_value stats = svc.stats_document();
  EXPECT_EQ(stats.find("jobs")->find("submitted")->as_int64(), 1);
  EXPECT_EQ(stats.find("jobs")->find("completed")->as_int64(), 1);
  EXPECT_EQ(stats.find("cache")->find("hits")->as_int64(), 1);
  EXPECT_EQ(stats.find("cache")->find("misses")->as_int64(), 1);
  EXPECT_DOUBLE_EQ(stats.find("cache")->find("hit_rate")->as_double(), 0.5);
  EXPECT_EQ(stats.find("job_seconds")->find("count")->as_int64(), 1);
  const obs::json_value* latency = stats.find("job_seconds");
  EXPECT_GE(latency->find("p99")->as_double(), latency->find("p50")->as_double());
}

// -- ServeConcurrency: re-run under TSan via the concurrency_suites
// target (tests/CMakeLists.txt extends the gtest_filter with this suite).

TEST(ServeConcurrency, ManyClientsShareOneService) {
  service_options options = fast_options();
  options.workers = 4;
  options.max_queue_depth = 64;
  service svc(options);

  constexpr int k_clients = 8;
  constexpr int k_requests = 4;
  std::atomic<int> ok_count{0};
  std::atomic<int> cached_count{0};
  std::vector<std::thread> clients;
  clients.reserve(k_clients);
  for (int c = 0; c < k_clients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < k_requests; ++r) {
        // Half the requests share one spec (cache contention), half are
        // unique per client (queue contention).
        const std::uint64_t seed =
            (r % 2 == 0) ? 1234 : 1000 + static_cast<std::uint64_t>(c);
        const obs::json_value response = svc.handle(run_request(16, 1, seed));
        if (response.find("ok")->as_bool()) {
          ok_count.fetch_add(1);
          if (response.find("cached")->as_bool()) cached_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(ok_count.load(), k_clients * k_requests);
  // The shared spec ran at most a handful of times; everyone else hit.
  EXPECT_GT(cached_count.load(), 0);
  EXPECT_EQ(svc.cache().hits() + svc.cache().misses(),
            static_cast<std::uint64_t>(k_clients * k_requests));
}

TEST(ServeConcurrency, StatsAndPingsInterleaveWithRuns) {
  service svc(fast_options());
  std::atomic<bool> stop{false};
  std::thread prober([&] {
    while (!stop.load()) {
      const obs::json_value stats = svc.stats_document();
      ASSERT_NE(stats.find("queue"), nullptr);
      const obs::json_value pong = svc.handle_line(R"({"type":"ping"})");
      ASSERT_EQ(pong.find("type")->as_string(), "pong");
    }
  });
  std::vector<std::thread> runners;
  for (int c = 0; c < 4; ++c) {
    runners.emplace_back([&, c] {
      for (int r = 0; r < 3; ++r) {
        const obs::json_value response = svc.handle(
            run_request(16, 1, 2000 + static_cast<std::uint64_t>(c)));
        EXPECT_TRUE(response.find("ok")->as_bool());
      }
    });
  }
  for (std::thread& t : runners) t.join();
  stop.store(true);
  prober.join();
}

TEST(ServeConcurrency, CacheSurvivesParallelGetPut) {
  result_cache cache(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 400; ++i) {
        std::string key = "k";
        key += std::to_string((t * 31 + i) % 32);
        if (i % 3 == 0) {
          cache.put(key, small_doc(i));
        } else if (const auto hit = cache.get(key)) {
          EXPECT_TRUE(hit->find("value")->is_number());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(cache.size(), 8u);
  // 400 iterations per thread, every third a put: 266 gets each.
  EXPECT_EQ(cache.hits() + cache.misses(), 8u * 266u);
}

}  // namespace
}  // namespace ssr::serve
