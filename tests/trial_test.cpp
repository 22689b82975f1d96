#include "pp/trial.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "obs/timeline.hpp"
#include "pp/rng.hpp"

namespace ssr {
namespace {

TEST(ParallelForIndex, VisitsEveryIndexOnce) {
  constexpr std::size_t count = 1000;
  std::vector<std::atomic<int>> visits(count);
  parallel_for_index(count, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelForIndex, SequentialModeWorks) {
  std::vector<int> order;
  parallel_for_index(
      5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
      /*parallel=*/false);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForIndex, PropagatesExceptions) {
  EXPECT_THROW(parallel_for_index(100,
                                  [](std::size_t i) {
                                    if (i == 37)
                                      throw std::runtime_error("boom");
                                  }),
               std::runtime_error);
}

TEST(ParallelForIndex, ZeroCountIsNoOp) {
  parallel_for_index(0, [](std::size_t) { FAIL(); });
}

TEST(ParallelForIndex, RunsOnTheCallingThreadWhileAProfilerIsInstalled) {
  // The profiler's section collector is single-threaded, so an installed
  // default profiler (--profile) must keep every body on this thread.
  obs::timeline_profiler profiler;
  obs::set_profiler_default(&profiler);
  std::mutex mutex;
  std::set<std::thread::id> threads;
  parallel_for_index(64, [&](std::size_t) {
    const std::scoped_lock lock(mutex);
    threads.insert(std::this_thread::get_id());
  });
  obs::set_profiler_default(nullptr);
  EXPECT_EQ(threads, std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(RunTrials, ResultsAreOrderedAndSeedDerived) {
  const auto results = run_trials(
      16, 7, [](std::uint64_t seed) { return static_cast<double>(seed % 97); });
  ASSERT_EQ(results.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(results[i],
                     static_cast<double>(derive_seed(7, i) % 97));
  }
}

TEST(RunTrials, ParallelAndSequentialAgree) {
  const auto trial = [](std::uint64_t seed) {
    return static_cast<double>(seed & 0xffff);
  };
  const auto par = run_trials(64, 3, trial, {.parallel = true});
  const auto seq = run_trials(64, 3, trial, {.parallel = false});
  EXPECT_EQ(par, seq);
}

}  // namespace
}  // namespace ssr
