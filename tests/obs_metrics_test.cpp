#include "obs/metrics.hpp"

#include "obs/progress.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "pp/engine.hpp"
#include "protocols/adversary.hpp"
#include "protocols/optimal_silent.hpp"
#include "protocols/silent_n_state.hpp"

namespace ssr::obs {
namespace {

TEST(ObsMetrics, CounterGaugeHistogram) {
  metrics_registry reg;
  counter& c = reg.get_counter("c");
  c.add(3);
  c.add(1);
  EXPECT_EQ(c.value(), 4u);
  reg.get_gauge("g").set(2.5);
  EXPECT_DOUBLE_EQ(reg.get_gauge("g").value(), 2.5);
  histogram& h = reg.get_histogram("h");
  for (const double x : {1.0, 2.0, 4.0, 4.0}) h.record(x);
  const histogram::snapshot_data snap = h.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 11.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 4.0);
}

TEST(ObsMetrics, RegistryReturnsStableReferences) {
  metrics_registry reg;
  counter& a = reg.get_counter("same");
  counter& b = reg.get_counter("same");
  EXPECT_EQ(&a, &b);
  a.add(1);
  EXPECT_EQ(b.value(), 1u);
}

TEST(ObsMetrics, SnapshotIsJson) {
  metrics_registry reg;
  reg.get_counter("runs").add(7);
  reg.get_histogram("secs").record(0.5);
  const json_value snap = reg.snapshot();
  ASSERT_TRUE(snap.is_object());
  ASSERT_NE(snap.find("runs"), nullptr);
  EXPECT_EQ(snap.find("runs")->as_uint64(), 7u);
  ASSERT_NE(snap.find("secs"), nullptr);
  EXPECT_TRUE(snap.find("secs")->is_object());
}

TEST(ObsMetrics, AbsorbEngineCounters) {
  engine_counters c;
  c.interactions_executed = 10;
  c.certain_nulls_skipped = 90;
  metrics_registry reg;
  reg.absorb(c);
  EXPECT_EQ(reg.get_counter("engine.interactions_executed").value(), 10u);
  EXPECT_EQ(reg.get_counter("engine.certain_nulls_skipped").value(), 90u);
  // absorb() is additive: folding the same counters in again doubles them.
  reg.absorb(c);
  EXPECT_EQ(reg.get_counter("engine.interactions_executed").value(), 20u);
  EXPECT_EQ(reg.get_counter("engine.certain_nulls_skipped").value(), 180u);
}

TEST(ObsMetrics, HistogramQuantilesFromSketch) {
  histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i);
  const histogram::snapshot_data snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_NEAR(snap.p50, 500.5, 10.0);
  EXPECT_NEAR(snap.p90, 900.0, 10.0);
  EXPECT_NEAR(snap.p99, 990.0, 10.0);
  EXPECT_DOUBLE_EQ(snap.sum_squares, 1000.0 * 1001.0 * 2001.0 / 6.0);
  const json_value j = h.to_json();
  ASSERT_NE(j.find("p50"), nullptr);
  ASSERT_NE(j.find("p99"), nullptr);
  EXPECT_NEAR(j.find("p90")->as_double(), 900.0, 10.0);
}

TEST(ObsMetrics, HistogramMergeIsAdditive) {
  histogram a, b;
  for (int i = 1; i <= 100; ++i) a.record(i);
  for (int i = 101; i <= 200; ++i) b.record(i);
  a.merge(b);
  const histogram::snapshot_data snap = a.snapshot();
  EXPECT_EQ(snap.count, 200u);
  EXPECT_DOUBLE_EQ(snap.sum, 200.0 * 201.0 / 2.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 200.0);
  EXPECT_NEAR(snap.p50, 100.5, 5.0);
  // Merging an empty histogram changes nothing.
  histogram empty;
  a.merge(empty);
  EXPECT_EQ(a.snapshot().count, 200u);
}

TEST(ObsMetrics, AbsorbRegistryTwiceIsAdditive) {
  metrics_registry source;
  source.get_counter("trials.completed").add(5);
  source.get_gauge("params.n").set(64.0);
  source.get_histogram("trial.seconds").record(1.5);
  source.get_histogram("trial.seconds").record(2.5);

  metrics_registry target;
  target.absorb(source);
  target.absorb(source);
  EXPECT_EQ(target.get_counter("trials.completed").value(), 10u);
  EXPECT_DOUBLE_EQ(target.get_gauge("params.n").value(), 64.0);
  const histogram::snapshot_data snap =
      target.get_histogram("trial.seconds").snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 8.0);
  // Self-absorb is a documented no-op.
  target.absorb(target);
  EXPECT_EQ(target.get_counter("trials.completed").value(), 10u);
}

// Many threads folding per-worker registries into one shared target while
// the target is also being recorded into directly: counter and histogram
// merges must stay additive and data-race free (run under TSan to enforce
// the latter).
TEST(ObsMetrics, AbsorbRegistryConcurrently) {
  constexpr int threads = 8;
  constexpr int rounds = 50;

  metrics_registry source;
  source.get_counter("work.items").add(3);
  source.get_histogram("work.seconds").record(0.25);

  metrics_registry target;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&target, &source, t] {
      for (int r = 0; r < rounds; ++r) {
        target.absorb(source);
        target.get_counter("work.items").add(1);
        target.get_histogram("work.seconds").record(0.5 + t);
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(target.get_counter("work.items").value(),
            static_cast<std::uint64_t>(threads * rounds) * 4);
  const histogram::snapshot_data snap =
      target.get_histogram("work.seconds").snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(threads * rounds) * 2);
}

// The production shape of absorb(): run_trials-style workers each own a
// private registry and fold it into the shared target when they finish,
// concurrently with each other.  With distinct per-worker contents the
// folded totals are exact, so any lost or double merge shows up as a wrong
// count, not just as a TSan report.
TEST(ObsMetrics, AbsorbDistinctWorkerRegistriesConcurrently) {
  constexpr int workers = 8;
  constexpr int folds_per_worker = 25;

  std::vector<metrics_registry> per_worker(workers);
  for (int t = 0; t < workers; ++t) {
    per_worker[t].get_counter("worker.items").add(
        static_cast<std::uint64_t>(t + 1));
    per_worker[t].get_gauge("params.n").set(64.0);
    // Distinct sample values per worker so min/max/sum pin the union.
    per_worker[t].get_histogram("worker.seconds").record(t + 1.0);
    per_worker[t].get_histogram("worker.seconds").record((t + 1.0) * 10.0);
  }

  metrics_registry target;
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (int t = 0; t < workers; ++t) {
    threads.emplace_back([&target, &per_worker, t] {
      for (int r = 0; r < folds_per_worker; ++r) {
        target.absorb(per_worker[static_cast<std::size_t>(t)]);
      }
    });
  }
  for (auto& th : threads) th.join();

  // sum(t+1, t=0..7) = 36 items per fold round.
  EXPECT_EQ(target.get_counter("worker.items").value(),
            36u * folds_per_worker);
  EXPECT_DOUBLE_EQ(target.get_gauge("params.n").value(), 64.0);
  const histogram::snapshot_data snap =
      target.get_histogram("worker.seconds").snapshot();
  EXPECT_EQ(snap.count,
            static_cast<std::uint64_t>(workers) * 2 * folds_per_worker);
  // sum(x + 10x, x=1..8) = 11 * 36 per fold round.
  EXPECT_DOUBLE_EQ(snap.sum, 11.0 * 36.0 * folds_per_worker);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 80.0);
}

// merge() summarizes the concatenated streams, so grouping must not
// matter: ((a+b)+c) and (a+(b+c)) answer quantiles identically up to
// t-digest interpolation error.  Three disjoint ranges make the combined
// distribution's quantiles known in closed form.
TEST(ObsMetrics, SketchMergeIsAssociative) {
  const auto fill = [](quantile_sketch& s, int lo, int hi) {
    for (int i = lo; i <= hi; ++i) s.add(i);
  };
  quantile_sketch a1, b1, c1, a2, b2, c2;
  fill(a1, 1, 1000);
  fill(b1, 1001, 2000);
  fill(c1, 2001, 3000);
  fill(a2, 1, 1000);
  fill(b2, 1001, 2000);
  fill(c2, 2001, 3000);

  quantile_sketch left_grouped = a1;  // ((a+b)+c)
  left_grouped.merge(b1);
  left_grouped.merge(c1);
  quantile_sketch bc = b2;  // (a+(b+c))
  bc.merge(c2);
  quantile_sketch right_grouped = a2;
  right_grouped.merge(bc);

  ASSERT_EQ(left_grouped.count(), 3000u);
  ASSERT_EQ(right_grouped.count(), 3000u);
  for (const double q : {0.01, 0.25, 0.50, 0.75, 0.90, 0.99}) {
    const double expected = q * 3000.0;  // uniform 1..3000
    EXPECT_NEAR(left_grouped.quantile(q), expected, 0.02 * 3000.0) << q;
    EXPECT_NEAR(left_grouped.quantile(q), right_grouped.quantile(q),
                0.02 * 3000.0)
        << q;
  }
}

TEST(ObsMetrics, EngineCountersToJsonHasEveryField) {
  engine_counters c;
  c.interactions_executed = 1;
  const json_value v = to_json(c);
  for (const char* field :
       {"interactions_executed", "certain_nulls_skipped",
        "transitions_changed", "fenwick_updates", "geometric_draws",
        "quiescent_jumps", "batches_drawn"}) {
    EXPECT_NE(v.find(field), nullptr) << field;
  }
}

// The central accounting contract (obs/engine_counters.hpp): hooks see
// exactly the executed interactions, skipped certain-nulls are charged to
// the budget, and the two always sum to engine.interactions().  The
// count-based batched engine exercises the geometric-skip, over-budget and
// quiescent-jump paths; silent_n_state from a random start goes quiescent
// well inside the budget, so all three fire.
TEST(ObsMetrics, BatchedEngineCounterInvariant) {
  const std::uint32_t n = 64;
  silent_n_state_ssr p(n);
  rng_t rng(41);
  auto init = adversarial_configuration(p, rng);
  batched_engine<silent_n_state_ssr> eng(p, std::move(init), 42);
  engine_counters c;
  eng.attach_counters(&c);

  std::uint64_t pre_calls = 0, post_calls = 0, changed_calls = 0;
  const std::uint64_t budget = std::uint64_t{200} * n * n;
  eng.run(budget, [&](const agent_pair&) { ++pre_calls; },
          [&](const agent_pair&, bool changed) {
            ++post_calls;
            changed_calls += changed;
            return false;
          });

  EXPECT_EQ(eng.interactions(), budget);
  EXPECT_EQ(c.interactions_executed, pre_calls);
  EXPECT_EQ(c.interactions_executed, post_calls);
  EXPECT_EQ(c.transitions_changed, changed_calls);
  EXPECT_EQ(c.interactions_executed + c.certain_nulls_skipped,
            eng.interactions());
  // A random start on n=64 has duplicate ranks, so skipping really happened
  // and quiescence was reached (the budget is ~200n parallel time units,
  // stabilization takes Theta(n)).
  EXPECT_GT(c.certain_nulls_skipped, 0u);
  EXPECT_GT(c.geometric_draws, 0u);
  EXPECT_GE(c.quiescent_jumps, 1u);
  EXPECT_TRUE(eng.quiescent());
}

TEST(ObsMetrics, DirectEngineCounterInvariant) {
  const std::uint32_t n = 32;
  optimal_silent_ssr p(n);
  rng_t rng(7);
  auto init =
      adversarial_configuration(p, optimal_silent_scenario::no_leader, rng);
  direct_engine<optimal_silent_ssr> eng(p, std::move(init), 8);
  engine_counters c;
  eng.attach_counters(&c);

  std::uint64_t post_calls = 0;
  const std::uint64_t budget = 5000;
  eng.run(budget, [](const agent_pair&) {},
          [&](const agent_pair&, bool) {
            ++post_calls;
            return false;
          });
  // The direct engine executes every interaction: nothing is ever skipped.
  EXPECT_EQ(c.interactions_executed, budget);
  EXPECT_EQ(post_calls, budget);
  EXPECT_EQ(c.certain_nulls_skipped, 0u);
  EXPECT_EQ(c.interactions_executed + c.certain_nulls_skipped,
            eng.interactions());
}

TEST(ObsMetrics, CountersAccumulateAcrossRuns) {
  const std::uint32_t n = 16;
  silent_n_state_ssr p(n);
  rng_t rng(3);
  auto init = adversarial_configuration(p, rng);
  batched_engine<silent_n_state_ssr> eng(p, std::move(init), 4);
  engine_counters c;
  eng.attach_counters(&c);
  eng.run(1000, [](const agent_pair&) {},
          [](const agent_pair&, bool) { return false; });
  eng.run(2000, [](const agent_pair&) {},
          [](const agent_pair&, bool) { return false; });
  EXPECT_EQ(c.interactions_executed + c.certain_nulls_skipped, 2000u);
}

// The heartbeat formatter is pure: registry snapshot in, one line out.
TEST(ObsProgress, SampleReadsRegistryKeysAndFormatterRendersEta) {
  metrics_registry registry;
  registry.get_counter("trials.completed").add(12);
  registry.get_gauge("run.parallel_time").set(500.0);
  registry.get_gauge("run.max_parallel_time").set(1000.0);
  registry.get_gauge("engine.interactions_executed").set(3.0e6);

  const progress_sample current = read_progress_sample(registry.snapshot());
  EXPECT_DOUBLE_EQ(current.trials_completed, 12.0);
  EXPECT_DOUBLE_EQ(current.parallel_time, 500.0);
  EXPECT_DOUBLE_EQ(current.max_parallel_time, 1000.0);
  EXPECT_DOUBLE_EQ(current.interactions, 3.0e6);

  progress_sample baseline;  // all zero
  progress_sample previous;
  previous.interactions = 1.0e6;
  const progress_options options{.total_trials = 60, .label = "bench"};
  // 12/60 trials after 6s at 2 trials/s -> 24s to go; interactions rate is
  // the delta over one 2s interval.
  const std::string line = format_progress_line(
      options, baseline, previous, current, /*interval_seconds=*/2.0,
      /*elapsed_seconds=*/6.0);
  EXPECT_NE(line.find("[bench]"), std::string::npos) << line;
  EXPECT_NE(line.find("trials 12/60 (20%)"), std::string::npos) << line;
  EXPECT_NE(line.find("ETA 24s"), std::string::npos) << line;
  EXPECT_NE(line.find("t=500/1000 (50%)"), std::string::npos) << line;
  EXPECT_NE(line.find("1.00e+06 interactions/s"), std::string::npos) << line;
}

TEST(ObsProgress, FormatterStaysSilentWithNothingToReport) {
  const progress_sample zero;
  EXPECT_EQ(format_progress_line({}, zero, zero, zero, 2.0, 2.0), "");
}

TEST(ObsProgress, MeterStopsCleanlyBeforeFirstInterval) {
  metrics_registry registry;
  progress_meter meter(registry, {.interval_seconds = 60.0});
  meter.stop();  // must join without waiting out the interval
  meter.stop();  // idempotent
}

TEST(ObsProgress, ManyThreadsStopConcurrently) {
  // Trial workers (or any concurrent driver) may race to shut the heartbeat
  // down; every stop() must return only after the meter thread exited, with
  // exactly one caller doing the join.  Runs under TSan via the
  // concurrency_suites target.
  for (int round = 0; round < 20; ++round) {
    metrics_registry registry;
    progress_meter meter(registry, {.interval_seconds = 60.0});
    std::vector<std::thread> stoppers;
    for (int t = 0; t < 4; ++t) stoppers.emplace_back([&] { meter.stop(); });
    meter.stop();
    for (auto& t : stoppers) t.join();
  }
}

TEST(ObsProgress, DefaultSwitchRoundTrips) {
  set_progress_default(true);
  EXPECT_TRUE(progress_default());
  set_progress_default(false);
  EXPECT_FALSE(progress_default());
}

}  // namespace
}  // namespace ssr::obs
