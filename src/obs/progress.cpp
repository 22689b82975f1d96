#include "obs/progress.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>

namespace ssr::obs {
namespace {

std::atomic<bool> progress_default_enabled{false};

double number_or(const json_value& snapshot, std::string_view key,
                 double fallback) {
  const json_value* v = snapshot.find(key);
  if (v == nullptr || !v->is_number()) return fallback;
  return v->as_double();
}

std::string format_eta(double seconds) {
  if (!std::isfinite(seconds) || seconds < 0.0) return "?";
  const auto total = static_cast<std::uint64_t>(seconds + 0.5);
  char buffer[32];
  if (total >= 3600) {
    std::snprintf(buffer, sizeof(buffer), "%lluh%02llum",
                  static_cast<unsigned long long>(total / 3600),
                  static_cast<unsigned long long>((total % 3600) / 60));
  } else if (total >= 60) {
    std::snprintf(buffer, sizeof(buffer), "%llum%02llus",
                  static_cast<unsigned long long>(total / 60),
                  static_cast<unsigned long long>(total % 60));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%llus",
                  static_cast<unsigned long long>(total));
  }
  return buffer;
}

std::string format_rate(double per_second) {
  char buffer[32];
  if (per_second >= 1e5) {
    std::snprintf(buffer, sizeof(buffer), "%.2e", per_second);
  } else if (per_second >= 10.0) {
    std::snprintf(buffer, sizeof(buffer), "%.0f", per_second);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.2f", per_second);
  }
  return buffer;
}

}  // namespace

void set_progress_default(bool enabled) {
  progress_default_enabled.store(enabled, std::memory_order_relaxed);
}

bool progress_default() {
  return progress_default_enabled.load(std::memory_order_relaxed);
}

progress_sample read_progress_sample(const json_value& snapshot) {
  progress_sample s;
  s.trials_completed = number_or(snapshot, "trials.completed", 0.0);
  s.interactions = number_or(snapshot, "engine.interactions_executed", 0.0);
  s.parallel_time = number_or(snapshot, "run.parallel_time", 0.0);
  s.max_parallel_time = number_or(snapshot, "run.max_parallel_time", 0.0);
  return s;
}

std::string format_progress_line(const progress_options& options,
                                 const progress_sample& baseline,
                                 const progress_sample& previous,
                                 const progress_sample& current,
                                 double interval_seconds,
                                 double elapsed_seconds) {
  std::string line = "[" + options.label + "]";
  bool has_content = false;
  const double dt = interval_seconds > 0.0 ? interval_seconds : 1.0;

  const double completed = current.trials_completed -
                           baseline.trials_completed;
  if (options.total_trials > 0) {
    const double total = static_cast<double>(options.total_trials);
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer), " trials %.0f/%.0f (%.0f%%)",
                  completed, total,
                  100.0 * completed / std::max(total, 1.0));
    line += buffer;
    const double rate =
        elapsed_seconds > 0.0 ? completed / elapsed_seconds : 0.0;
    if (rate > 0.0) {
      line += " | " + format_rate(rate) + " trials/s | ETA " +
              format_eta((total - completed) / rate);
    }
    has_content = true;
  }

  if (current.max_parallel_time > 0.0) {
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer), " t=%.4g/%.4g (%.0f%%)",
                  current.parallel_time, current.max_parallel_time,
                  100.0 * current.parallel_time / current.max_parallel_time);
    line += buffer;
    const double rate = elapsed_seconds > 0.0
                            ? (current.parallel_time -
                               baseline.parallel_time) / elapsed_seconds
                            : 0.0;
    if (rate > 0.0) {
      line += " | ETA " + format_eta(
          (current.max_parallel_time - current.parallel_time) / rate);
    }
    has_content = true;
  }

  const double interactions_delta = current.interactions -
                                    previous.interactions;
  if (interactions_delta > 0.0) {
    line += " | " + format_rate(interactions_delta / dt) + " interactions/s";
    has_content = true;
  }

  return has_content ? line : std::string{};
}

progress_meter::progress_meter(const metrics_registry& registry,
                               progress_options options)
    : registry_(registry), options_(std::move(options)) {
  if (options_.interval_seconds <= 0.0) options_.interval_seconds = 2.0;
  thread_ = std::thread([this] { loop(); });
}

progress_meter::~progress_meter() { stop(); }

void progress_meter::stop() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  // Not gated on a "first stop" flag: stop() must be safe from destructors
  // running during exception unwinding, and a late caller must not return
  // while the meter thread is still alive.  The joinable/join pair is not
  // atomic, so concurrent callers (e.g. trial workers draining a shared
  // meter) serialize on join_mutex_: the first one joins, the rest block
  // here until the thread is down and then see joinable() == false.
  const std::scoped_lock join_lock(join_mutex_);
  if (thread_.joinable()) thread_.join();
}

void progress_meter::loop() try {
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  const progress_sample baseline = read_progress_sample(registry_.snapshot());
  progress_sample previous = baseline;
  const auto interval = std::chrono::duration<double>(
      options_.interval_seconds);

  std::unique_lock lock(mutex_);
  while (!cv_.wait_for(lock, interval, [this] { return stopping_; })) {
    lock.unlock();
    const progress_sample current =
        read_progress_sample(registry_.snapshot());
    const double elapsed =
        std::chrono::duration<double>(clock::now() - start).count();
    std::string line = format_progress_line(
        options_, baseline, previous, current, options_.interval_seconds,
        elapsed);
    // One write call per heartbeat so the line (newline included) cannot
    // interleave with other stderr writers, and the last line before stop()
    // is always newline-terminated.
    if (!line.empty()) {
      line += '\n';
      std::cerr << line << std::flush;
    }
    previous = current;
    lock.lock();
  }
} catch (...) {
  // A throwing heartbeat (snapshot allocation, stream failure) must not
  // take the process down via std::terminate; the meter just goes quiet
  // and stop() still joins normally.
}

}  // namespace ssr::obs
