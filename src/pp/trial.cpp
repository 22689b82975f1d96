#include "pp/trial.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "obs/progress.hpp"
#include "obs/timeline.hpp"
#include "pp/rng.hpp"

namespace ssr {

void parallel_for_index(std::size_t count,
                        const std::function<void(std::size_t)>& body,
                        bool parallel) {
  if (count == 0) return;
  // A default profiler keeps every body on this thread (see the header).
  const bool threaded = parallel && obs::profiler_default() == nullptr;
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t workers =
      threaded ? std::min<std::size_t>(count, hw == 0 ? 4 : hw) : 1;

  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;

  auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        const std::scoped_lock lock(error_mutex);
        if (!error) error = std::current_exception();
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker);
  for (auto& t : threads) t.join();

  if (error) std::rethrow_exception(error);
}

std::vector<double> run_trials(
    std::size_t count, std::uint64_t base_seed,
    const std::function<double(std::uint64_t)>& trial,
    const trial_options& options) {
  std::vector<double> results(count);
  obs::timeline_profiler* profiler = obs::profiler_default();

  // The heartbeat needs a registry to watch; fall back to a local one when
  // the caller did not wire metrics through.  Accounting always runs when
  // either consumer (metrics or heartbeat) wants it.
  const bool progress = obs::progress_default() && count > 1;
  std::optional<obs::metrics_registry> local_registry;
  obs::metrics_registry* registry = options.metrics;
  if (registry == nullptr && progress) registry = &local_registry.emplace();
  std::optional<obs::progress_meter> meter;
  if (progress) {
    meter.emplace(*registry,
                  obs::progress_options{.total_trials = count,
                                        .label = "trials"});
  }

  parallel_for_index(
      count,
      [&](std::size_t i) {
        obs::timeline_scope section(profiler, "trial");
        if (options.cancel != nullptr) options.cancel->throw_if_cancelled();
        const auto start = std::chrono::steady_clock::now();
        results[i] = trial(derive_seed(base_seed, i));
        if (registry == nullptr) return;
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        registry->get_histogram("trial.seconds").record(elapsed.count());
        registry->get_counter("trials.completed").add(1);
      },
      options.parallel);
  return results;
}

}  // namespace ssr
